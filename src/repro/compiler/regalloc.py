"""Scratch-register allocation for instruction selection.

IR temporaries produced by :mod:`repro.compiler.ir` are expression-local and
short-lived (the language generator never materialises comparisons or nests
calls), so a simple allocate/free pool suffices: a temp's register is freed
at its last use, and the pool is sized so that well-formed inputs never
exhaust it.  Exhaustion raises :class:`AllocationError` with a clear message
rather than silently mis-compiling.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.compiler.ir import (
    BinOp,
    Call,
    CondJump,
    IRFunction,
    Move,
    Ret,
    Temp,
    UnOp,
)


class AllocationError(Exception):
    """Raised when the scratch pool is exhausted or a temp is misused."""


def temp_last_uses(ir: IRFunction) -> Dict[int, int]:
    """Index of the final instruction that *reads* each temp."""
    last: Dict[int, int] = {}
    for i, instr in enumerate(ir.instructions):
        for operand in instruction_reads(instr):
            if isinstance(operand, Temp):
                last[operand.index] = i
    return last


def instruction_reads(instr) -> Tuple:
    """Operands read by an IR instruction."""
    if isinstance(instr, Move):
        return (instr.src,)
    if isinstance(instr, BinOp):
        return (instr.lhs, instr.rhs)
    if isinstance(instr, UnOp):
        return (instr.src,)
    if isinstance(instr, CondJump):
        return (instr.lhs, instr.rhs)
    if isinstance(instr, Call):
        return tuple(instr.args)
    if isinstance(instr, Ret):
        return (instr.value,) if instr.value is not None else ()
    return ()


class ScratchAllocator:
    """Map live IR temps to scratch registers within one function."""

    def __init__(self, registers: Tuple[str, ...], ir: IRFunction):
        if not registers:
            raise AllocationError("scratch register pool is empty")
        self._free: List[str] = list(registers)
        self._assigned: Dict[int, str] = {}
        self._last_uses = temp_last_uses(ir)

    def define(self, temp: Temp) -> str:
        """Allocate a register for a newly defined temp."""
        if temp.index in self._assigned:
            raise AllocationError(f"temp {temp} defined twice")
        if not self._free:
            raise AllocationError(
                "scratch register pool exhausted; expression too deep for "
                "this backend"
            )
        register = self._free.pop(0)
        self._assigned[temp.index] = register
        return register

    def location(self, temp: Temp) -> str:
        """Register currently holding a live temp."""
        try:
            return self._assigned[temp.index]
        except KeyError:
            raise AllocationError(f"temp {temp} used before definition") from None

    def release_after_use(self, temp: Temp, instr_index: int) -> None:
        """Free the temp's register if ``instr_index`` was its final use."""
        if self._last_uses.get(temp.index, -1) <= instr_index:
            register = self._assigned.pop(temp.index, None)
            if register is not None:
                self._free.append(register)

    def assert_no_live_temps(self, context: str) -> None:
        """Invariant check used around call sites."""
        if self._assigned:
            live = ", ".join(f"%t{i}" for i in sorted(self._assigned))
            raise AllocationError(
                f"temps live across {context}: {live}; the lowering should "
                "not produce values that survive a call"
            )
