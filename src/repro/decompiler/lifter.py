"""Per-block symbolic lifting of machine code to statements.

The lifter walks a basic block's instructions maintaining a symbolic
environment (register / temp-slot -> expression tree).  Reads of *variable
homes* (frame slots on x86/x64, ``r4``-``r11`` on ARM, ``r14``-``r30`` on
PPC) produce ``var`` nodes; writes to variable homes emit assignment
statements; everything routed through scratch locations is folded into
expressions -- the temp-collapsing real decompilers perform.

ARM predicated instruction runs are reconstructed as if/else statements
whose condition is the *first predicated instruction's* condition code;
because the code generator emits the else arm (inverted condition) first,
the decompiled AST shows the flipped comparison the paper's Figure 2
documents for ARM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.binformat.binary import BinaryFile
from repro.compiler.cfg import BasicBlock, ControlFlowGraph
from repro.compiler.codegen import (
    AImm,
    AsmFunction,
    Instruction,
    Lab,
    Mem,
    Reg,
    SRef,
)
from repro.compiler.isa import ISA, get_isa
from repro.lang import nodes as N
from repro.lang.nodes import Node, Ops

_CC_TO_OP = {
    "eq": Ops.EQ,
    "ne": Ops.NE,
    "gt": Ops.GT,
    "lt": Ops.LT,
    "ge": Ops.GE,
    "le": Ops.LE,
}

_MNEMONIC_TO_OP = {
    # x86 family
    "add": Ops.ADD, "sub": Ops.SUB, "imul": Ops.MUL, "idiv": Ops.DIV,
    "and": Ops.AND, "or": Ops.OR, "xor": Ops.XOR,
    # ARM
    "orr": Ops.OR, "eor": Ops.XOR, "mul": Ops.MUL, "sdiv": Ops.DIV,
    # PPC
    "mullw": Ops.MUL, "divw": Ops.DIV, "addi": Ops.ADD,
}


class LiftError(Exception):
    """Raised when machine code violates the lifter's assumptions."""


# -- terminators ---------------------------------------------------------------


@dataclass
class RetTerm:
    value: Optional[Node]


@dataclass
class JumpTerm:
    target: int


@dataclass
class BranchTerm:
    """Conditional branch: taken when ``lhs <op> rhs`` holds."""

    op: str
    lhs: Node
    rhs: Node
    taken: int
    fallthrough: int


@dataclass
class FallTerm:
    target: Optional[int]


Terminator = Union[RetTerm, JumpTerm, BranchTerm, FallTerm]


@dataclass
class LiftedBlock:
    block_id: int
    statements: List[Node] = field(default_factory=list)
    terminator: Terminator = field(default_factory=lambda: FallTerm(None))


# -- base lifter ------------------------------------------------------------------


class _BlockLifter:
    """Shared machinery; subclasses implement per-family semantics."""

    def __init__(self, fn: AsmFunction, cfg: ControlFlowGraph, binary: BinaryFile):
        self.fn = fn
        self.cfg = cfg
        self.binary = binary
        self.isa: ISA = get_isa(fn.arch)
        self.n_params = fn.frame.n_params
        self.n_locals = fn.frame.n_locals
        # per-block state
        self.env: Dict[object, Node] = {}
        self.stmts: List[Node] = []
        self.flags: Optional[Tuple[Node, Node]] = None
        self.pending_call: Optional[Node] = None

    # -- variable naming ---------------------------------------------------------

    def _var_name(self, index: int) -> str:
        if index < self.n_params:
            return f"a{index}"
        return f"v{index - self.n_params}"

    def var_home_name(self, operand) -> Optional[str]:
        """Variable name if the operand is a variable home, else None."""
        raise NotImplementedError

    # -- environment --------------------------------------------------------------

    def read(self, operand) -> Node:
        if isinstance(operand, AImm):
            return N.num(operand.value)
        if isinstance(operand, SRef):
            return N.string(operand.text)
        name = self.var_home_name(operand)
        if name is not None:
            return N.var(name)
        key = _loc_key(operand)
        try:
            return self.env[key]
        except KeyError:
            raise LiftError(
                f"{self.fn.name}: read of undefined location {operand} "
                f"(scratch values must not cross block boundaries)"
            ) from None

    def write(self, operand, value: Node) -> None:
        name = self.var_home_name(operand)
        if name is not None:
            self._consume_pending(value)
            if not (value.op == Ops.VAR and value.value == name):
                self.stmts.append(self._assignment_node(name, value))
            return
        self.env[_loc_key(operand)] = value

    def _assignment_node(self, name: str, value: Node) -> Node:
        """Build the statement for a variable write (plain assignment)."""
        return N.asg(N.var(name), value)

    def _consume_pending(self, value: Node) -> None:
        if self.pending_call is not None and value is self.pending_call:
            self.pending_call = None

    def flush_pending_call(self) -> None:
        """A call result that was never stored becomes a bare call statement."""
        if self.pending_call is not None:
            self.stmts.append(self.pending_call)
            self.pending_call = None

    # -- callee arity ---------------------------------------------------------------

    def callee_arity(self, name: str) -> int:
        try:
            return self.binary.function_named(name).frame.n_params
        except KeyError:
            raise LiftError(f"unknown call target {name!r}") from None

    # -- driver -----------------------------------------------------------------------

    def lift_block(self, block: BasicBlock, is_entry: bool) -> LiftedBlock:
        self.env = {}
        self.stmts = []
        self.flags = None
        self.pending_call = None
        if is_entry:
            self._init_entry_env()
        index = block.start
        instructions = block.instructions
        position = 0
        while position < len(instructions):
            consumed = self._maybe_lift_predicated(instructions, position)
            if consumed:
                position += consumed
                continue
            self._lift_instruction(instructions[position])
            position += 1
        terminator = self._terminator(block)
        self.flush_pending_call()
        return LiftedBlock(
            block_id=block.block_id,
            statements=self.stmts,
            terminator=terminator,
        )

    def _maybe_lift_predicated(self, instructions, position: int) -> int:
        return 0  # only ARM overrides

    def _init_entry_env(self) -> None:
        for i, reg in enumerate(self.isa.arg_registers):
            if i < self.n_params:
                self.env[("reg", reg)] = N.var(self._var_name(i))

    def _terminator(self, block: BasicBlock) -> Terminator:
        last = block.instructions[-1] if block.instructions else None
        successors = self.cfg.succ[block.block_id]
        if last is not None and self._is_return(last):
            return RetTerm(self._return_value())
        if last is not None and last.mnemonic == self.isa.jump and last.operands \
                and isinstance(last.operands[0], Lab):
            return JumpTerm(successors["jump"])
        if last is not None and self.isa.is_conditional_branch(last.mnemonic):
            if "taken" not in successors:
                # Degenerate branch whose target IS the fallthrough (e.g. an
                # if-arm that compiled to zero instructions): a no-op.
                return FallTerm(successors.get("fallthrough"))
            if self.flags is None:
                raise LiftError(
                    f"{self.fn.name}: conditional branch without preceding compare"
                )
            if "fallthrough" not in successors:
                raise LiftError(
                    f"{self.fn.name}: conditional branch ends the function "
                    f"(no fallthrough successor)"
                )
            op = self.isa.branch_condition(last.mnemonic)
            lhs, rhs = self.flags
            return BranchTerm(
                op=op,
                lhs=lhs,
                rhs=rhs,
                taken=successors["taken"],
                fallthrough=successors["fallthrough"],
            )
        if "fallthrough" in successors:
            return FallTerm(successors["fallthrough"])
        return FallTerm(None)

    def _return_value(self) -> Optional[Node]:
        key = ("reg", self.isa.return_register)
        value = self.env.get(key)
        if value is not None:
            self._consume_pending(value)
        return value

    def _is_return(self, instr: Instruction) -> bool:
        raise NotImplementedError

    def _lift_instruction(self, instr: Instruction) -> None:
        raise NotImplementedError

    # -- shared op helpers ----------------------------------------------------------

    def _make_call(self, callee: str, args: List[Node]) -> None:
        call_node = N.call(callee, *args)
        self.flush_pending_call()
        self.pending_call = call_node
        # Calls clobber scratch state; drop everything except the result.
        self.env = {("reg", self.isa.return_register): call_node}
        self.flags = None


def _loc_key(operand):
    if isinstance(operand, Reg):
        return ("reg", operand.name)
    if isinstance(operand, Mem):
        return ("mem", operand.base, operand.offset)
    raise LiftError(f"unsupported location {operand!r}")


# -- x86 / x64 ----------------------------------------------------------------------


_COMPOUND_ASG_OPS = {
    Ops.ADD: Ops.ASG_ADD,
    Ops.SUB: Ops.ASG_SUB,
    Ops.MUL: Ops.ASG_MUL,
    Ops.DIV: Ops.ASG_DIV,
    Ops.AND: Ops.ASG_AND,
    Ops.OR: Ops.ASG_OR,
    Ops.XOR: Ops.ASG_XOR,
}


class X86Lifter(_BlockLifter):
    def __init__(self, fn, cfg, binary):
        super().__init__(fn, cfg, binary)
        self.word = self.isa.word_size
        self.arg_stack: List[Node] = []

    def _assignment_node(self, name: str, value: Node) -> Node:
        """On two-operand machines Hex-Rays reconstructs read-modify-write
        sequences as compound assignments (``x += e``); do the same, which
        is one of the systematic AST differences between the CISC and RISC
        decompilations of one source function."""
        if (
            value.op in _COMPOUND_ASG_OPS
            and len(value.children) == 2
            and value.children[0].op == Ops.VAR
            and value.children[0].value == name
        ):
            return Node(
                _COMPOUND_ASG_OPS[value.op],
                (N.var(name), value.children[1]),
            )
        return N.asg(N.var(name), value)

    def var_home_name(self, operand) -> Optional[str]:
        if not isinstance(operand, Mem) or operand.base != self.isa.frame_pointer:
            return None
        offset = operand.offset
        if self.isa.name == "x86":
            if offset > 0:
                index = (offset - 2 * self.word) // self.word
                if 0 <= index < self.n_params:
                    return self._var_name(index)
                return None
            slot = (-offset) // self.word - 1
            if 0 <= slot < self.n_locals:
                return self._var_name(self.n_params + slot)
            return None
        # x64: params spilled first, then locals, then temps
        if offset >= 0:
            return None
        slot = (-offset) // self.word - 1
        if slot < self.n_params:
            return self._var_name(slot)
        if slot < self.n_params + self.n_locals:
            return self._var_name(slot)
        return None

    def _is_return(self, instr: Instruction) -> bool:
        return instr.mnemonic == "ret"

    def _lift_instruction(self, instr: Instruction) -> None:
        mnemonic = instr.mnemonic
        ops = instr.operands
        fp_sp = (self.isa.frame_pointer, self.isa.stack_pointer)
        if mnemonic in ("leave", "ret", "jmp", "nop") or mnemonic in self.isa.branches.values():
            return
        if mnemonic == "push":
            src = ops[0]
            if isinstance(src, Reg) and src.name in fp_sp:
                return  # prologue
            self.arg_stack.append(self.read(src))
            return
        if mnemonic == "pop":
            return
        if mnemonic == "call":
            callee = ops[0].name
            args = list(reversed(self.arg_stack)) if self.isa.name == "x86" else [
                self.read(Reg(r))
                for r in self.isa.arg_registers[: self.callee_arity(ops[0].name)]
            ]
            if self.isa.name == "x86":
                expected = self.callee_arity(callee)
                if len(args) != expected:
                    raise LiftError(
                        f"{self.fn.name}: call to {callee} with {len(args)} "
                        f"stacked args, expected {expected}"
                    )
            self.arg_stack = []
            self._make_call(callee, args)
            return
        if mnemonic == "mov":
            dst, src = ops
            if isinstance(dst, Reg) and dst.name in fp_sp:
                return  # prologue: mov ebp, esp
            self.write(dst, self.read(src))
            return
        if mnemonic == "cmp":
            self.flags = (self.read(ops[0]), self.read(ops[1]))
            return
        if mnemonic in ("neg", "not"):
            op = Ops.NEG if mnemonic == "neg" else Ops.NOT
            target = ops[0]
            self.write(target, Node(op, (self.read(target),)))
            return
        if mnemonic in _MNEMONIC_TO_OP:
            dst, src = ops
            if isinstance(dst, Reg) and dst.name in fp_sp:
                return  # sub esp, N / add esp, N frame adjustments
            value = Node(_MNEMONIC_TO_OP[mnemonic], (self.read(dst), self.read(src)))
            self.write(dst, value)
            return
        raise LiftError(f"{self.fn.name}: unhandled {self.isa.name} mnemonic "
                        f"{mnemonic!r}")


# -- ARM ---------------------------------------------------------------------------


class ARMLifter(_BlockLifter):
    def var_home_name(self, operand) -> Optional[str]:
        if isinstance(operand, Reg):
            if operand.name in self.isa.var_registers:
                index = self.isa.var_registers.index(operand.name)
                if index < self.n_params + self.n_locals:
                    return self._var_name(index)
            return None
        if isinstance(operand, Mem) and operand.base == self.isa.frame_pointer:
            if operand.offset < 0:
                k = (-operand.offset) // self.isa.word_size
                index = len(self.isa.var_registers) + k - 1
                if index < self.n_params + self.n_locals:
                    return self._var_name(index)
        return None

    def _is_return(self, instr: Instruction) -> bool:
        return instr.mnemonic == "bx"

    def _maybe_lift_predicated(self, instructions, position: int) -> int:
        """Reconstruct a predicated run as an if/else statement."""
        first = instructions[position]
        if not first.cond:
            return 0
        if self.flags is None:
            raise LiftError(f"{self.fn.name}: predicated instruction without flags")
        run: List[Instruction] = []
        cursor = position
        while cursor < len(instructions) and instructions[cursor].cond:
            run.append(instructions[cursor])
            cursor += 1
        lead_cc = run[0].cond
        lead_op = _CC_TO_OP[lead_cc]
        arms: Dict[str, List[Node]] = {}
        for instr in run:
            arms.setdefault(instr.cond, []).append(self._predicated_stmt(instr))
        other = [cc for cc in arms if cc != lead_cc]
        if len(other) > 1:
            raise LiftError(f"{self.fn.name}: predicated run with >2 conditions")
        lhs, rhs = self.flags
        cond = Node(lead_op, (lhs, rhs))
        then_block = Node(Ops.BLOCK, tuple(arms[lead_cc]))
        if other:
            else_block = Node(Ops.BLOCK, tuple(arms[other[0]]))
            self.stmts.append(N.if_(cond, then_block, else_block))
        else:
            self.stmts.append(N.if_(cond, then_block))
        return len(run)

    def _predicated_stmt(self, instr: Instruction) -> Node:
        ops = instr.operands
        dst_name = self.var_home_name(ops[0])
        if dst_name is None:
            raise LiftError(
                f"{self.fn.name}: predicated write to non-variable {ops[0]}"
            )
        if instr.mnemonic == "mov":
            return N.asg(N.var(dst_name), self.read(ops[1]))
        op = _arm_alu_op(instr.mnemonic)
        return N.asg(
            N.var(dst_name), Node(op, (self.read(ops[1]), self.read(ops[2])))
        )

    def _lift_instruction(self, instr: Instruction) -> None:
        mnemonic = instr.mnemonic
        ops = instr.operands
        if mnemonic in ("push", "pop", "nop", "b", "bx") or \
                mnemonic in self.isa.branches.values():
            return
        if mnemonic == "mov":
            dst = ops[0]
            if isinstance(dst, Reg) and dst.name in ("fp", "sp"):
                return  # prologue
            self.write(dst, self.read(ops[1]))
            return
        if mnemonic == "ldr":
            self.write(ops[0], self.read(ops[1]))
            return
        if mnemonic == "str":
            self.write(ops[1], self.read(ops[0]))
            return
        if mnemonic == "cmp":
            self.flags = (self.read(ops[0]), self.read(ops[1]))
            return
        if mnemonic == "bl":
            callee = ops[0].name
            args = [
                self.read(Reg(r))
                for r in self.isa.arg_registers[: self.callee_arity(callee)]
            ]
            self._make_call(callee, args)
            return
        if mnemonic == "mvn":
            self.write(ops[0], Node(Ops.NOT, (self.read(ops[1]),)))
            return
        if mnemonic == "rsb":
            # rsb rd, rn, #0  =>  rd = 0 - rn
            if isinstance(ops[2], AImm) and ops[2].value == 0:
                self.write(ops[0], Node(Ops.NEG, (self.read(ops[1]),)))
            else:
                value = Node(Ops.SUB, (self.read(ops[2]), self.read(ops[1])))
                self.write(ops[0], value)
            return
        op = _arm_alu_op(mnemonic)
        self.write(ops[0], Node(op, (self.read(ops[1]), self.read(ops[2]))))

    def _return_value(self) -> Optional[Node]:
        return super()._return_value()


def _arm_alu_op(mnemonic: str) -> str:
    try:
        return {
            "add": Ops.ADD, "sub": Ops.SUB, "mul": Ops.MUL, "sdiv": Ops.DIV,
            "and": Ops.AND, "orr": Ops.OR, "eor": Ops.XOR,
        }[mnemonic]
    except KeyError:
        raise LiftError(f"unhandled ARM mnemonic {mnemonic!r}") from None


# -- PPC ---------------------------------------------------------------------------


class PPCLifter(_BlockLifter):
    def var_home_name(self, operand) -> Optional[str]:
        if isinstance(operand, Reg):
            if operand.name in self.isa.var_registers:
                index = self.isa.var_registers.index(operand.name)
                if index < self.n_params + self.n_locals:
                    return self._var_name(index)
            return None
        if isinstance(operand, Mem) and operand.base == self.isa.frame_pointer:
            if operand.offset < 0:
                k = (-operand.offset) // self.isa.word_size
                index = len(self.isa.var_registers) + k - 1
                if index < self.n_params + self.n_locals:
                    return self._var_name(index)
        return None

    def _is_return(self, instr: Instruction) -> bool:
        return instr.mnemonic == "blr"

    def _lift_instruction(self, instr: Instruction) -> None:
        mnemonic = instr.mnemonic
        ops = instr.operands
        if mnemonic in ("nop", "b", "blr") or mnemonic in self.isa.branches.values():
            return
        if mnemonic == "li":
            self.write(ops[0], self.read(ops[1]))
            return
        if mnemonic == "mr":
            self.write(ops[0], self.read(ops[1]))
            return
        if mnemonic == "lwz":
            self.write(ops[0], self.read(ops[1]))
            return
        if mnemonic == "stw":
            self.write(ops[1], self.read(ops[0]))
            return
        if mnemonic in ("cmpw", "cmpwi"):
            self.flags = (self.read(ops[0]), self.read(ops[1]))
            return
        if mnemonic == "bl":
            callee = ops[0].name
            args = [
                self.read(Reg(r))
                for r in self.isa.arg_registers[: self.callee_arity(callee)]
            ]
            self._make_call(callee, args)
            return
        if mnemonic == "neg":
            self.write(ops[0], Node(Ops.NEG, (self.read(ops[1]),)))
            return
        if mnemonic == "nor":
            # nor rd, rs, rs encodes NOT
            self.write(ops[0], Node(Ops.NOT, (self.read(ops[1]),)))
            return
        if mnemonic == "subf":
            # subf rd, ra, rb = rb - ra
            value = Node(Ops.SUB, (self.read(ops[2]), self.read(ops[1])))
            self.write(ops[0], value)
            return
        if mnemonic == "addi":
            value = Node(Ops.ADD, (self.read(ops[1]), self.read(ops[2])))
            self.write(ops[0], value)
            return
        if mnemonic in _MNEMONIC_TO_OP:
            value = Node(
                _MNEMONIC_TO_OP[mnemonic], (self.read(ops[1]), self.read(ops[2]))
            )
            self.write(ops[0], value)
            return
        raise LiftError(f"{self.fn.name}: unhandled PPC mnemonic {mnemonic!r}")


_LIFTERS = {"x86": X86Lifter, "x64": X86Lifter, "arm": ARMLifter, "ppc": PPCLifter}


def lift_function(
    fn: AsmFunction, cfg: ControlFlowGraph, binary: BinaryFile
) -> Dict[int, LiftedBlock]:
    """Lift every basic block of a function."""
    lifter = _LIFTERS[fn.arch](fn, cfg, binary)
    lifted: Dict[int, LiftedBlock] = {}
    for block_id, block in cfg.blocks.items():
        lifted[block_id] = lifter.lift_block(block, is_entry=(block_id == cfg.entry))
    return lifted
