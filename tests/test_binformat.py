"""Tests for the binary container, firmware packing, and binwalk."""

import pytest

from repro.binformat.binary import BinaryFile, LinkError, assemble_binary
from repro.binformat.binwalk import UnpackError, scan_firmware, unpack_firmware
from repro.binformat.encoding import (
    EncodingError,
    decode_instructions,
    encode_function,
    register_table,
)
from repro.binformat.firmware import FIRMWARE_MAGIC, pack_firmware
from repro.compiler.codegen import (
    AImm,
    AsmFunction,
    FrameInfo,
    Instruction,
    Lab,
    Mem,
    Reg,
    SRef,
    Sym,
)
from repro.compiler.isa import SUPPORTED_ARCHES, get_isa
from repro.compiler.pipeline import compile_package
from repro.decompiler import decompile_function
from repro.disasm.disassembler import disassemble_function


class TestEncoding:
    def _roundtrip(self, arch, instructions, labels=None):
        isa = get_isa(arch)
        fn = AsmFunction("f", arch, FrameInfo(0, 0), list(instructions),
                         labels or {})
        code = encode_function(fn, isa, lambda s: 7, lambda s: 3)
        decoded, _targets = decode_instructions(
            code, isa, lambda i: "callee", lambda off: "str"
        )
        return decoded

    def test_register_operand_roundtrip(self):
        decoded = self._roundtrip("x86", [Instruction("mov", (Reg("eax"), Reg("ecx")))])
        assert decoded[0].mnemonic == "mov"
        assert decoded[0].operands == (Reg("eax"), Reg("ecx"))

    def test_immediate_roundtrip_signed(self):
        decoded = self._roundtrip("x86", [Instruction("mov", (Reg("eax"), AImm(-12345)))])
        assert decoded[0].operands[1] == AImm(-12345)

    def test_memory_operand_roundtrip(self):
        decoded = self._roundtrip("x86", [Instruction("mov", (Mem("ebp", -8), Reg("eax")))])
        assert decoded[0].operands[0] == Mem("ebp", -8)

    def test_label_becomes_target_index(self):
        instrs = [Instruction("jmp", (Lab("L"),)), Instruction("nop")]
        decoded = self._roundtrip("x86", instrs, labels={"L": 1})
        assert decoded[0].operands[0] == Lab("1")

    def test_symbol_and_string(self):
        decoded = self._roundtrip("x86", [
            Instruction("call", (Sym("g"),)),
            Instruction("push", (SRef("hello"),)),
        ])
        assert decoded[0].operands[0] == Sym("callee")
        assert decoded[1].operands[0] == SRef("str")

    def test_arm_condition_roundtrip(self):
        decoded = self._roundtrip("arm", [
            Instruction("mov", (Reg("r4"), AImm(1)), cond="le"),
        ])
        assert decoded[0].cond == "le"

    def test_unknown_mnemonic_rejected(self):
        isa = get_isa("x86")
        fn = AsmFunction("f", "x86", FrameInfo(0, 0),
                         [Instruction("bl", (Sym("g"),))], {})
        with pytest.raises(EncodingError):
            encode_function(fn, isa, lambda s: 0, lambda s: 0)

    def test_undefined_label_rejected(self):
        isa = get_isa("x86")
        fn = AsmFunction("f", "x86", FrameInfo(0, 0),
                         [Instruction("jmp", (Lab("nowhere"),))], {})
        with pytest.raises(EncodingError):
            encode_function(fn, isa, lambda s: 0, lambda s: 0)

    def test_truncated_bytes_rejected(self):
        isa = get_isa("x86")
        with pytest.raises(EncodingError):
            decode_instructions(b"\x01", isa, lambda i: "", lambda o: "")

    def test_unknown_opcode_rejected(self):
        isa = get_isa("x86")
        with pytest.raises(EncodingError):
            decode_instructions(b"\xff\x00\x00", isa, lambda i: "", lambda o: "")

    @pytest.mark.parametrize("arch", SUPPORTED_ARCHES)
    def test_register_table_covers_isa(self, arch):
        isa = get_isa(arch)
        table = register_table(isa)
        assert len(table) == len(set(table))
        for reg in isa.scratch_registers + isa.var_registers:
            assert reg in table


class TestBinaryFile:
    def test_serialise_roundtrip(self, package):
        binary = compile_package(package, "arm")
        restored = BinaryFile.from_bytes(binary.to_bytes())
        assert restored.name == binary.name
        assert restored.arch == binary.arch
        assert len(restored.functions) == len(binary.functions)
        assert restored.string_section == binary.string_section
        for a, b in zip(restored.functions, binary.functions):
            assert a.name == b.name
            assert a.code == b.code
            assert a.frame.n_params == b.frame.n_params

    def test_bad_magic_rejected(self):
        with pytest.raises(EncodingError):
            BinaryFile.from_bytes(b"ELF!" + b"\x00" * 64)

    def test_strip_removes_names(self, package):
        binary = compile_package(package, "x86")
        stripped = binary.strip()
        assert stripped.is_stripped
        assert all(f.name is None for f in stripped.functions)
        assert all(f.display_name().startswith("sub_")
                   for f in stripped.functions)
        # original untouched
        assert not binary.is_stripped

    def test_stripped_serialise_roundtrip(self, package):
        stripped = compile_package(package, "x86").strip()
        restored = BinaryFile.from_bytes(stripped.to_bytes())
        assert restored.is_stripped

    def test_function_lookup(self, package):
        binary = compile_package(package, "ppc")
        fn_name = package.functions[0].name
        record = binary.function_named(fn_name)
        assert record.name == fn_name
        assert binary.function_at(record.address) is record
        with pytest.raises(KeyError):
            binary.function_named("missing")

    def test_string_section_lookup(self, package):
        binary = compile_package(package, "x64")
        if binary.string_section:
            assert isinstance(binary.string_at(0), str)

    def test_addresses_aligned_and_increasing(self, package):
        binary = compile_package(package, "arm")
        addresses = [f.address for f in binary.functions]
        assert addresses == sorted(addresses)
        assert all(a % 16 == 0 for a in addresses)

    def test_unresolved_call_raises(self):
        from repro.compiler.ir import lower_function
        from repro.compiler.codegen import select_instructions
        from repro.lang import nodes as N
        from repro.lang.nodes import FunctionDef

        fn = FunctionDef("f", ("a0",), ("v0",), N.block(
            N.asg(N.var("v0"), N.call("missing", N.var("a0"))),
            N.ret(N.var("v0")),
        ))
        asm = select_instructions(lower_function(fn), "x86")
        with pytest.raises(LinkError):
            assemble_binary("b", "x86", [asm])


class TestFirmware:
    def test_pack_unpack_roundtrip(self, binaries):
        image = pack_firmware("NetGear", "R7000", "1.0",
                              [binaries["arm"], binaries["ppc"]], seed=3)
        extracted = unpack_firmware(image)
        assert len(extracted) == 2
        assert {b.arch for b in extracted} == {"arm", "ppc"}
        assert extracted[0].name == binaries["arm"].name

    def test_junk_prefix_scanned_past(self, binaries):
        image = pack_firmware("Dlink", "DIR-850", "2.0", [binaries["x86"]],
                              seed=9, junk_prefix_max=64)
        signatures = scan_firmware(image.blob)
        assert len(signatures) >= 1
        assert unpack_firmware(image)[0].arch == "x86"

    def test_unknown_format_rejected(self, binaries):
        image = pack_firmware("Schneider", "BMX", "1.1", [binaries["x64"]],
                              seed=5, unknown_format=True)
        assert not scan_firmware(image.blob)
        with pytest.raises(UnpackError):
            unpack_firmware(image)

    def test_identifier(self, binaries):
        image = pack_firmware("V", "M", "1.2", [binaries["arm"]], seed=1)
        assert image.identifier == "V/M/1.2"

    def test_magic_not_in_junk(self, binaries):
        """Determinism check: packing is reproducible for a given seed."""
        a = pack_firmware("V", "M", "1", [binaries["arm"]], seed=4)
        b = pack_firmware("V", "M", "1", [binaries["arm"]], seed=4)
        assert a.blob == b.blob

    def test_stripped_binaries_survive_packing(self, binaries):
        image = pack_firmware("V", "M", "1", [binaries["arm"].strip()], seed=2)
        extracted = unpack_firmware(image)
        assert extracted[0].is_stripped


class TestCallGraph:
    def test_callees_with_multiplicity(self, package, binaries):
        """A function's callees, as read from its call instructions, list a
        callee once per call site, each with its instruction count."""
        binary = binaries["x86"]
        for fn in package.functions:
            record = binary.function_named(fn.name)
            asm = disassemble_function(binary, record)
            callees = decompile_function(binary, record).callees
            assert len(callees) == len(asm.callee_names())
            for callee_name, size in callees:
                assert size \
                    == binary.function_named(callee_name).n_instructions
