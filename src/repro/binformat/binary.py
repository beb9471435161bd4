"""The ``RBIN`` binary container.

A :class:`BinaryFile` is what the compiler emits and what the disassembler
consumes: per-function encoded code, a string section, and a symbol table.
:meth:`BinaryFile.strip` drops function names exactly as release firmware
does, after which the disassembler labels functions ``sub_<address>`` (the
behaviour the paper describes for its Firmware dataset).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.binformat.encoding import EncodingError, encode_function
from repro.compiler.codegen import AsmFunction, FrameInfo
from repro.compiler.isa import SUPPORTED_ARCHES, get_isa

_MAGIC = b"RBIN"
_FORMAT_VERSION = 1
BASE_ADDRESS = 0x1000
_ALIGN = 16


@dataclass
class SymbolEntry:
    """One symbol-table entry (function name -> address)."""

    name: str
    address: int
    function_index: int


@dataclass
class FunctionRecord:
    """One function inside a binary.

    ``name`` is None in stripped binaries.  ``frame`` carries the parameter
    and local counts a decompiler would infer from frame accesses.
    """

    name: Optional[str]
    address: int
    code: bytes
    n_instructions: int
    frame: FrameInfo

    @property
    def size(self) -> int:
        return len(self.code)

    def display_name(self) -> str:
        return self.name if self.name is not None else f"sub_{self.address:x}"


@dataclass
class BinaryFile:
    """A compiled binary: functions + string section + (optional) symbols."""

    name: str
    arch: str
    functions: List[FunctionRecord] = field(default_factory=list)
    string_section: bytes = b""
    symbols: List[SymbolEntry] = field(default_factory=list)

    @property
    def is_stripped(self) -> bool:
        return not self.symbols

    def function_named(self, name: str) -> FunctionRecord:
        for record in self.functions:
            if record.name == name or record.display_name() == name:
                return record
        raise KeyError(f"no function {name!r} in binary {self.name!r}")

    def function_at(self, address: int) -> FunctionRecord:
        for record in self.functions:
            if record.address == address:
                return record
        raise KeyError(f"no function at {address:#x} in binary {self.name!r}")

    def string_at(self, offset: int) -> str:
        end = self.string_section.find(b"\x00", offset)
        if end < 0:
            raise EncodingError(f"unterminated string at offset {offset}")
        return self.string_section[offset:end].decode("utf-8")

    def strip(self) -> "BinaryFile":
        """Return a copy with the symbol table and function names removed."""
        return BinaryFile(
            name=self.name,
            arch=self.arch,
            functions=[replace(f, name=None) for f in self.functions],
            string_section=self.string_section,
            symbols=[],
        )

    # -- serialisation ------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = [
            _MAGIC,
            struct.pack("<B", _FORMAT_VERSION),
            struct.pack("<B", SUPPORTED_ARCHES.index(self.arch)),
            _pack_str(self.name),
            struct.pack("<I", len(self.string_section)),
            self.string_section,
            struct.pack("<B", 0 if self.is_stripped else 1),
        ]
        if not self.is_stripped:
            out.append(struct.pack("<I", len(self.symbols)))
            for symbol in self.symbols:
                out.append(_pack_str(symbol.name))
                out.append(struct.pack("<II", symbol.address, symbol.function_index))
        out.append(struct.pack("<I", len(self.functions)))
        for record in self.functions:
            out.append(struct.pack("<B", 0 if record.name is None else 1))
            if record.name is not None:
                out.append(_pack_str(record.name))
            out.append(
                struct.pack(
                    "<IIHH",
                    record.address,
                    record.n_instructions,
                    record.frame.n_params,
                    record.frame.n_locals,
                )
            )
            out.append(struct.pack("<I", len(record.code)))
            out.append(record.code)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BinaryFile":
        if blob[:4] != _MAGIC:
            raise EncodingError("not an RBIN binary (bad magic)")
        offset = 4
        version = blob[offset]
        if version != _FORMAT_VERSION:
            raise EncodingError(f"unsupported RBIN version {version}")
        offset += 1
        arch = SUPPORTED_ARCHES[blob[offset]]
        offset += 1
        name, offset = _unpack_str(blob, offset)
        (str_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        string_section = blob[offset:offset + str_len]
        offset += str_len
        has_symbols = blob[offset]
        offset += 1
        symbols: List[SymbolEntry] = []
        if has_symbols:
            (n_symbols,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            for _ in range(n_symbols):
                sym_name, offset = _unpack_str(blob, offset)
                address, func_index = struct.unpack_from("<II", blob, offset)
                offset += 8
                symbols.append(SymbolEntry(sym_name, address, func_index))
        (n_functions,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        functions: List[FunctionRecord] = []
        for _ in range(n_functions):
            has_name = blob[offset]
            offset += 1
            fn_name = None
            if has_name:
                fn_name, offset = _unpack_str(blob, offset)
            address, n_instructions, n_params, n_locals = struct.unpack_from(
                "<IIHH", blob, offset
            )
            offset += 12
            (code_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            code = blob[offset:offset + code_len]
            offset += code_len
            functions.append(
                FunctionRecord(
                    name=fn_name,
                    address=address,
                    code=code,
                    n_instructions=n_instructions,
                    frame=FrameInfo(n_params, n_locals),
                )
            )
        return cls(
            name=name,
            arch=arch,
            functions=functions,
            string_section=string_section,
            symbols=symbols,
        )


def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    return struct.pack("<H", len(data)) + data


def _unpack_str(blob: bytes, offset: int):
    (length,) = struct.unpack_from("<H", blob, offset)
    offset += 2
    return blob[offset:offset + length].decode("utf-8"), offset + length


class LinkError(Exception):
    """Raised when a call target cannot be resolved at assembly time."""


def assemble_binary(name: str, arch: str, asm_functions: Sequence[AsmFunction]) -> BinaryFile:
    """Assemble selected functions into a binary.

    Lays out functions at aligned addresses, pools string literals, builds
    the symbol table, and encodes each function.  Every call target must be
    one of the assembled functions (the compiler pipeline guarantees this by
    appending library leaf functions).
    """
    isa = get_isa(arch)
    name_to_index: Dict[str, int] = {}
    for i, fn in enumerate(asm_functions):
        if fn.arch != arch:
            raise LinkError(
                f"function {fn.name!r} compiled for {fn.arch}, binary is {arch}"
            )
        if fn.name in name_to_index:
            raise LinkError(f"duplicate function name {fn.name!r}")
        name_to_index[fn.name] = i

    # -- string pool -----------------------------------------------------------
    string_offsets: Dict[str, int] = {}
    pool = bytearray()
    for fn in asm_functions:
        for text in fn.string_literals():
            if text not in string_offsets:
                string_offsets[text] = len(pool)
                pool.extend(text.encode("utf-8"))
                pool.append(0)

    def symbol_index(callee: str) -> int:
        try:
            return name_to_index[callee]
        except KeyError:
            raise LinkError(
                f"unresolved call target {callee!r} in binary {name!r}"
            ) from None

    # -- encode + layout ----------------------------------------------------------
    functions: List[FunctionRecord] = []
    symbols: List[SymbolEntry] = []
    address = BASE_ADDRESS
    for i, fn in enumerate(asm_functions):
        code = encode_function(fn, isa, symbol_index, lambda s: string_offsets[s])
        functions.append(
            FunctionRecord(
                name=fn.name,
                address=address,
                code=code,
                n_instructions=len(fn.instructions),
                frame=fn.frame,
            )
        )
        symbols.append(SymbolEntry(fn.name, address, i))
        address += (len(code) + _ALIGN - 1) // _ALIGN * _ALIGN
    return BinaryFile(
        name=name,
        arch=arch,
        functions=functions,
        string_section=bytes(pool),
        symbols=symbols,
    )
