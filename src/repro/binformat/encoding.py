"""Instruction encoding: symbolic assembly <-> bytes.

Each ISA gets a stable opcode table (from :meth:`ISA.opcode_table`) and a
canonical register index table.  Instructions encode as::

    [opcode:1][cond:1][n_operands:1] operand*

with operands tagged by type:

    ====  =========  =======================================
    tag   kind       payload
    ====  =========  =======================================
    1     Reg        register index (1 byte)
    2     Imm        signed value (8 bytes, little endian)
    3     Mem        base register (1) + signed offset (4)
    4     Lab        target instruction index (4 bytes)
    5     Sym        symbol-table index (4 bytes)
    6     SRef       string-section offset (4 bytes)
    ====  =========  =======================================

The encoding round-trips exactly (see :mod:`repro.disasm.decoder`), which is
what lets the disassembler and decompiler operate on *bytes* rather than on
in-memory compiler structures -- the same boundary real tooling has.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Tuple

from repro.compiler.codegen import (
    AImm,
    AsmFunction,
    Instruction,
    Lab,
    Mem,
    Reg,
    SRef,
    Sym,
)
from repro.compiler.isa import ISA, SUPPORTED_ARCHES, get_isa

_COND_CODES = ("", "eq", "ne", "gt", "lt", "ge", "le")


class EncodingError(Exception):
    """Raised on malformed instructions or undecodable bytes."""


def register_table(isa: ISA) -> Tuple[str, ...]:
    """Canonical ordered register list for one ISA (index = encoding)."""
    seen: List[str] = []
    for name in (
        list(isa.scratch_registers)
        + list(isa.var_registers)
        + list(isa.arg_registers)
        + [isa.frame_pointer, isa.stack_pointer, isa.return_register]
        + ([isa.link_register] if isa.link_register else [])
    ):
        if name and name not in seen:
            seen.append(name)
    return tuple(seen)


def _register_index(isa: ISA) -> Dict[str, int]:
    return {name: i for i, name in enumerate(register_table(isa))}


def encode_function(
    fn: AsmFunction,
    isa: ISA,
    symbol_index: Callable[[str], int],
    string_offset: Callable[[str], int],
) -> bytes:
    """Encode an assembly function to bytes.

    ``symbol_index`` maps a callee name to its symbol-table slot;
    ``string_offset`` maps a string literal to its string-section offset.
    """
    opcodes = isa.opcode_table()
    reg_index = _register_index(isa)
    label_to_instr = fn.labels
    chunks: List[bytes] = []
    for instr in fn.instructions:
        try:
            opcode = opcodes[instr.mnemonic]
        except KeyError:
            raise EncodingError(
                f"mnemonic {instr.mnemonic!r} not in {isa.name} opcode table"
            ) from None
        try:
            cond = _COND_CODES.index(instr.cond)
        except ValueError:
            raise EncodingError(f"unknown condition code {instr.cond!r}") from None
        parts = [struct.pack("<BBB", opcode, cond, len(instr.operands))]
        for operand in instr.operands:
            parts.append(
                _encode_operand(
                    operand, reg_index, label_to_instr, symbol_index, string_offset
                )
            )
        chunks.append(b"".join(parts))
    return b"".join(chunks)


def _encode_operand(
    operand,
    reg_index: Dict[str, int],
    labels: Dict[str, int],
    symbol_index: Callable[[str], int],
    string_offset: Callable[[str], int],
) -> bytes:
    if isinstance(operand, Reg):
        try:
            return struct.pack("<BB", 1, reg_index[operand.name])
        except KeyError:
            raise EncodingError(f"unknown register {operand.name!r}") from None
    if isinstance(operand, AImm):
        return struct.pack("<Bq", 2, operand.value)
    if isinstance(operand, Mem):
        try:
            return struct.pack("<BBi", 3, reg_index[operand.base], operand.offset)
        except KeyError:
            raise EncodingError(f"unknown base register {operand.base!r}") from None
    if isinstance(operand, Lab):
        try:
            return struct.pack("<BI", 4, labels[operand.name])
        except KeyError:
            raise EncodingError(f"undefined label {operand.name!r}") from None
    if isinstance(operand, Sym):
        return struct.pack("<BI", 5, symbol_index(operand.name))
    if isinstance(operand, SRef):
        return struct.pack("<BI", 6, string_offset(operand.text))
    raise EncodingError(f"unencodable operand {operand!r}")


#: Precompiled field layouts of the decoder.
_HEADER = struct.Struct("<BBB")  # opcode, condition code, operand count
_IMM = struct.Struct("<q")
_MEM = struct.Struct("<Bi")  # base register, offset
_U32 = struct.Struct("<I")

#: Payload bytes after each operand tag.
_PAYLOAD_SIZE = {1: 1, 2: 8, 3: 5, 4: 4, 5: 4, 6: 4}


def _decode_tables(isa: ISA):
    """``(opcode -> mnemonic, interned Reg by index, register names)``."""
    names = register_table(isa)
    return isa.mnemonic_table(), tuple(Reg(name) for name in names), names


#: Built once, at import, for every ISA :func:`get_isa` knows.
_DECODE_TABLES = {
    name: _decode_tables(get_isa(name)) for name in SUPPORTED_ARCHES
}


def decode_instructions(
    code: bytes,
    isa: ISA,
    symbol_name: Callable[[int], str],
    string_at: Callable[[int], str],
) -> Tuple[List[Instruction], Dict[int, int]]:
    """Decode bytes back to instructions.

    Returns ``(instructions, branch_targets)`` where ``branch_targets`` maps
    the decoded instruction's position to its target instruction index (for
    label reconstruction by the disassembler).  Truncated or malformed
    bytes raise :class:`EncodingError`; ``symbol_name`` and ``string_at``
    report a bad index themselves.
    """
    mnemonics, registers, register_names = _DECODE_TABLES[isa.name]
    n_registers = len(registers)
    end = len(code)
    instructions: List[Instruction] = []
    branch_targets: Dict[int, int] = {}
    offset = 0
    while offset < end:
        if offset + 3 > end:
            raise EncodingError("truncated instruction header")
        opcode, cond_code, n_operands = _HEADER.unpack_from(code, offset)
        offset += 3
        mnemonic = mnemonics.get(opcode)
        if mnemonic is None:
            raise EncodingError(f"unknown opcode {opcode} for {isa.name}")
        if cond_code >= len(_COND_CODES):
            raise EncodingError(f"unknown condition code {cond_code}")
        operands = []
        for _ in range(n_operands):
            if offset >= end:
                raise EncodingError("truncated operand")
            tag = code[offset]
            size = _PAYLOAD_SIZE.get(tag)
            if size is None:
                raise EncodingError(f"unknown operand tag {tag}")
            start = offset + 1
            offset = start + size
            if offset > end:
                raise EncodingError("truncated operand")
            if tag == 1:
                index = code[start]
                if index >= n_registers:
                    raise EncodingError(f"register index {index} out of range")
                operands.append(registers[index])
            elif tag == 2:
                operands.append(AImm(_IMM.unpack_from(code, start)[0]))
            elif tag == 3:
                base_index, off = _MEM.unpack_from(code, start)
                if base_index >= n_registers:
                    raise EncodingError(
                        f"register index {base_index} out of range"
                    )
                operands.append(Mem(register_names[base_index], off))
            elif tag == 4:
                (target,) = _U32.unpack_from(code, start)
                # The raw target index stands in for the label name; the
                # disassembler renames it to loc_N at this position.
                branch_targets[len(instructions)] = target
                operands.append(Lab(str(target)))
            elif tag == 5:
                (index,) = _U32.unpack_from(code, start)
                operands.append(Sym(symbol_name(index)))
            else:
                (str_offset,) = _U32.unpack_from(code, start)
                operands.append(SRef(string_at(str_offset)))
        instructions.append(
            Instruction(mnemonic, tuple(operands), _COND_CODES[cond_code])
        )
    return instructions, branch_targets
