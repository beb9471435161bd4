"""Control-flow structuring: CFG + lifted blocks -> statement AST.

The structurer rebuilds ``if``/``else``, ``while`` and ``break`` constructs
from the CFG: loop heads are the targets of back edges, found from the
CFG's immediate dominators (:meth:`ControlFlowGraph.loop_heads`), and
conditionals follow the branch/join patterns our code generators emit.
``for`` loops intentionally come back as ``while`` loops and compound
assignments as plain assignments: real decompilers show the same
normalisations, and because they are applied uniformly across
architectures they do not perturb cross-platform matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.cfg import ControlFlowGraph
from repro.decompiler.lifter import (
    BranchTerm,
    FallTerm,
    JumpTerm,
    LiftedBlock,
    RetTerm,
)
from repro.lang import nodes as N
from repro.lang.nodes import NEGATED_COMPARISON, Node, Ops


class StructuringError(Exception):
    """Raised when the CFG does not match any structured pattern."""


@dataclass
class _LoopContext:
    head: int
    exit: int


class Structurer:
    """Single-use structurer for one function."""

    def __init__(self, cfg: ControlFlowGraph, lifted: Dict[int, LiftedBlock]):
        self.cfg = cfg
        self.lifted = lifted
        self.loop_heads: Set[int] = cfg.loop_heads()
        self._end_to_block = {
            block.end: block_id for block_id, block in cfg.blocks.items()
        }
        self._loop_stack: List[_LoopContext] = []
        self._steps = 0
        self._max_steps = 10000 * (len(cfg.blocks) + 1)
        # Hex-Rays tends to recover `for` loops on the x86 family but emits
        # plain `while` loops on RISC targets; reproducing that gives the
        # cross-architecture AST divergence the paper observes.
        self._reconstruct_for = cfg.function.arch in ("x86", "x64")

    # -- public ----------------------------------------------------------------

    def structure(self) -> Node:
        stmts = self._sequence(self.cfg.entry, set(), in_loops=set())
        return Node(Ops.BLOCK, tuple(stmts))

    # -- core recursion -----------------------------------------------------------

    def _sequence(
        self, start: Optional[int], stop: Set[int], in_loops: Set[int]
    ) -> List[Node]:
        """Emit statements from ``start`` until reaching a block in ``stop``."""
        stmts: List[Node] = []
        block_id = start
        while block_id is not None and block_id not in stop:
            self._steps += 1
            if self._steps > self._max_steps:
                raise StructuringError("structuring did not converge")
            if block_id in self.loop_heads and block_id not in in_loops:
                loop_stmt, block_id = self._loop(block_id, stop, in_loops)
                for_stmt = self._try_for_loop(stmts, loop_stmt)
                stmts.append(for_stmt if for_stmt is not None else loop_stmt)
                continue
            lifted = self.lifted[block_id]
            stmts.extend(lifted.statements)
            terminator = lifted.terminator
            if isinstance(terminator, RetTerm):
                if terminator.value is not None:
                    stmts.append(N.ret(terminator.value))
                else:
                    stmts.append(N.ret())
                block_id = None
            elif isinstance(terminator, JumpTerm):
                block_id = self._follow_jump(terminator.target, stop, stmts)
            elif isinstance(terminator, FallTerm):
                block_id = terminator.target
            elif isinstance(terminator, BranchTerm):
                if_stmt, block_id = self._conditional(
                    block_id, terminator, stop, in_loops
                )
                stmts.append(if_stmt)
            else:  # pragma: no cover
                raise StructuringError(f"unknown terminator {terminator!r}")
        return stmts

    def _follow_jump(
        self, target: int, stop: Set[int], stmts: List[Node]
    ) -> Optional[int]:
        """Handle an unconditional jump edge: break, back edge, or plain flow."""
        for ctx in reversed(self._loop_stack):
            if target == ctx.exit:
                stmts.append(Node(Ops.BREAK))
                return None
            if target == ctx.head:
                # Back edge (loop latch) -- the path simply ends here.
                return None
        return target

    # -- loops ----------------------------------------------------------------------

    def _loop(
        self, head: int, stop: Set[int], in_loops: Set[int]
    ) -> Tuple[Node, Optional[int]]:
        lifted = self.lifted[head]
        terminator = lifted.terminator
        if not isinstance(terminator, BranchTerm):
            raise StructuringError(
                f"loop head {head} does not end in a conditional branch"
            )
        exit_block = terminator.taken
        body_entry = terminator.fallthrough
        cond = Node(
            NEGATED_COMPARISON[terminator.op], (terminator.lhs, terminator.rhs)
        )
        self._loop_stack.append(_LoopContext(head=head, exit=exit_block))
        try:
            body_stmts = self._sequence(
                body_entry, stop | {head, exit_block}, in_loops | {head}
            )
        finally:
            self._loop_stack.pop()
        header_stmts = list(lifted.statements)
        body = Node(Ops.BLOCK, tuple(body_stmts))
        if header_stmts:
            # Rare shape: header computes statements each iteration; emit the
            # endless-loop normal form decompilers use.
            guard = N.if_(
                Node(terminator.op, (terminator.lhs, terminator.rhs)),
                Node(Ops.BLOCK, (Node(Ops.BREAK),)),
            )
            inner = Node(Ops.BLOCK, tuple(header_stmts + [guard] + list(body_stmts)))
            loop_stmt = N.while_(N.num(1), inner)
        else:
            loop_stmt = N.while_(cond, body)
        next_block = None if exit_block in stop else exit_block
        if exit_block in stop:
            return loop_stmt, None
        return loop_stmt, next_block

    def _try_for_loop(
        self, stmts: List[Node], loop_stmt: Node
    ) -> Optional[Node]:
        """Fold ``init; while (v cmp e) { ...; step(v) }`` into a for loop.

        Only on the x86 family (``self._reconstruct_for``); consumes the
        trailing init statement from ``stmts`` when it matches.
        """
        if not self._reconstruct_for or loop_stmt.op != Ops.WHILE:
            return None
        cond, body = loop_stmt.children
        if not cond.children or cond.children[0].op != Ops.VAR:
            return None
        loop_var = cond.children[0].value
        if body.op != Ops.BLOCK or not body.children:
            return None
        step = body.children[-1]
        if not _assigns_to(step, loop_var):
            return None
        if not stmts or not _assigns_to(stmts[-1], loop_var):
            return None
        init = stmts.pop()
        rest = Node(Ops.BLOCK, tuple(body.children[:-1]))
        return Node(Ops.FOR, (init, cond, step, rest))

    # -- conditionals ------------------------------------------------------------------

    def _conditional(
        self,
        block_id: int,
        terminator: BranchTerm,
        stop: Set[int],
        in_loops: Set[int],
    ) -> Tuple[Node, Optional[int]]:
        taken = terminator.taken
        fallthrough = terminator.fallthrough
        cond = Node(
            NEGATED_COMPARISON[terminator.op], (terminator.lhs, terminator.rhs)
        )
        join = taken
        else_join = self._detect_else_join(taken)
        if else_join is not None:
            join = else_join
            then_stmts = self._sequence(fallthrough, stop | {taken, join}, in_loops)
            else_stmts = self._sequence(taken, stop | {join}, in_loops)
            if_stmt = N.if_(
                cond,
                Node(Ops.BLOCK, tuple(then_stmts)),
                Node(Ops.BLOCK, tuple(else_stmts)),
            )
        else:
            then_stmts = self._sequence(fallthrough, stop | {join}, in_loops)
            if_stmt = N.if_(cond, Node(Ops.BLOCK, tuple(then_stmts)))
        next_block = None if join in stop else join
        return if_stmt, next_block

    def _detect_else_join(self, taken: int) -> Optional[int]:
        """If the branch has an else arm, return the join block.

        Pattern: the then arm's final block (positionally just before the
        branch's taken target) ends with a forward jump over the else arm.
        Jumps to a loop head or loop exit are back edges / breaks, not
        else-skips.
        """
        taken_block = self.cfg.blocks.get(taken)
        if taken_block is None:
            return None
        prev_id = self._end_to_block.get(taken_block.start)
        if prev_id is None:
            return None
        prev_term = self.lifted[prev_id].terminator
        if not isinstance(prev_term, JumpTerm):
            return None
        join = prev_term.target
        if join == taken:
            return None
        for ctx in self._loop_stack:
            if join in (ctx.head, ctx.exit):
                return None
        # The join must lie after the else arm in layout order.
        join_block = self.cfg.blocks.get(join)
        if join_block is not None and join_block.start < taken_block.start:
            return None
        return join


_ASSIGNMENT_OPS = frozenset(
    (Ops.ASG, Ops.ASG_OR, Ops.ASG_XOR, Ops.ASG_AND, Ops.ASG_ADD,
     Ops.ASG_SUB, Ops.ASG_MUL, Ops.ASG_DIV)
)


def _assigns_to(stmt: Node, variable: str) -> bool:
    return (
        stmt.op in _ASSIGNMENT_OPS
        and len(stmt.children) == 2
        and stmt.children[0].op == Ops.VAR
        and stmt.children[0].value == variable
    )


def structure_function(
    cfg: ControlFlowGraph, lifted: Dict[int, LiftedBlock]
) -> Node:
    """Structure one lifted function into a block AST."""
    return Structurer(cfg, lifted).structure()
