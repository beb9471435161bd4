"""Function disassembly.

Decodes a :class:`~repro.binformat.binary.FunctionRecord`'s bytes back into
an :class:`~repro.compiler.codegen.AsmFunction`, reconstructing branch
labels (``loc_N``) and resolving call-symbol indices to names -- or to
``sub_<address>`` placeholders when the binary is stripped, matching the
paper's description of IDA's behaviour on the Firmware dataset.
"""

from __future__ import annotations

from typing import Dict, List

from repro.binformat.binary import BinaryFile, FunctionRecord
from repro.binformat.encoding import EncodingError, decode_instructions
from repro.compiler.codegen import AsmFunction, Instruction, Lab
from repro.compiler.isa import get_isa


class DisassemblyError(Exception):
    """Raised when bytes cannot be decoded into instructions."""


def disassemble_function(binary: BinaryFile, record: FunctionRecord) -> AsmFunction:
    """Disassemble one function of a binary."""
    isa = get_isa(binary.arch)

    def symbol_name(index: int) -> str:
        if index >= len(binary.functions):
            raise DisassemblyError(f"symbol index {index} out of range")
        return binary.functions[index].display_name()

    try:
        instructions, branch_targets = decode_instructions(
            record.code, isa, symbol_name, binary.string_at
        )
    except EncodingError as exc:
        raise DisassemblyError(
            f"cannot decode {record.display_name()}: {exc}"
        ) from exc

    # Rebuild label names from raw target indices, only where the decoder
    # saw a label operand.
    labels: Dict[str, int] = {
        f"loc_{target}": target
        for target in sorted(set(branch_targets.values()))
    }
    for position in branch_targets:
        instr = instructions[position]
        instructions[position] = Instruction(
            instr.mnemonic,
            tuple(
                Lab(f"loc_{op.name}") if isinstance(op, Lab) else op
                for op in instr.operands
            ),
            instr.cond,
        )
    return AsmFunction(
        name=record.display_name(),
        arch=binary.arch,
        frame=record.frame,
        instructions=instructions,
        labels=labels,
    )


def disassemble_binary(binary: BinaryFile) -> List[AsmFunction]:
    """Disassemble every function in a binary."""
    return [disassemble_function(binary, record) for record in binary.functions]
