"""Tests for disassembly and decompilation, including the semantic
round-trip property (source behaviour == decompiled behaviour on every
architecture) and the paper's cross-architecture AST artefacts."""

import pytest

from repro.binformat.encoding import EncodingError
from repro.compiler.isa import SUPPORTED_ARCHES
from repro.compiler.pipeline import (
    CompilationOptions,
    compile_function,
    compile_package,
    cross_compile,
    library_function_defs,
)
from repro.decompiler import (
    DecompilationError,
    decompile_binary,
    decompile_function,
)
from repro.disasm import disassemble_binary, disassemble_function, DisassemblyError
from repro.lang import nodes as N
from repro.lang.interp import Interpreter, run_decompiled
from repro.lang.nodes import FunctionDef, Node, Ops
from repro.utils.rng import RNG

DIAMOND = FunctionDef("histsizesetfn", ("a0",), ("v0",), N.block(
    N.if_(N.binop(Ops.LT, N.var("a0"), N.num(1)),
          N.block(N.asg(N.var("v0"), N.num(1))),
          N.block(N.asg(N.var("v0"), N.var("a0")))),
    N.ret(N.var("v0")),
))

LOOP = FunctionDef("looper", ("a0",), ("v0",), N.block(
    N.asg(N.var("v0"), N.num(0)),
    N.for_(N.asg(N.var("t0"), N.num(0)),
           N.binop(Ops.LT, N.var("t0"), N.var("a0")),
           N.asg(N.var("t0"), N.binop(Ops.ADD, N.var("t0"), N.num(1))),
           N.block(N.binop(Ops.ASG_ADD, N.var("v0"), N.num(2)))),
    N.ret(N.var("v0")),
))
LOOP = FunctionDef("looper", ("a0",), ("v0", "t0"), LOOP.body)


def _decompiled(fn, arch):
    binary = compile_function(fn, arch)
    record = binary.function_named(fn.name)
    return decompile_function(binary, record)


def _ops_in(ast):
    return {n.op for n in ast.walk()}


class TestDisassembler:
    @pytest.mark.parametrize("arch", SUPPORTED_ARCHES)
    def test_roundtrip_instructions(self, package, binaries, arch):
        """Disassembly reproduces the instruction stream exactly."""
        from repro.compiler.ir import Lowerer
        from repro.compiler.codegen import select_instructions
        from repro.compiler.optimizer import fold_constants, inline_small_functions
        from repro.compiler.optimizer import DEFAULT_INLINE_THRESHOLDS
        from repro.lang.nodes import Package

        binary = binaries[arch]
        augmented = Package(
            name=package.name,
            functions=list(package.functions) + library_function_defs(),
        )
        inlined = inline_small_functions(
            augmented, DEFAULT_INLINE_THRESHOLDS[arch]
        )
        for fn in inlined.functions:
            asm = select_instructions(fold_constants(Lowerer().lower(fn)), arch)
            record = binary.function_named(fn.name)
            decoded = disassemble_function(binary, record)
            assert [i.mnemonic for i in decoded.instructions] == [
                i.mnemonic for i in asm.instructions
            ]
            # Every label actually referenced by a branch is reconstructed
            # (labels only reached by fallthrough carry no information).
            from repro.compiler.codegen import Lab

            referenced = {
                asm.labels[op.name]
                for instr in asm.instructions
                for op in instr.operands
                if isinstance(op, Lab)
            }
            assert set(decoded.labels.values()) == referenced

    def test_stripped_names(self, binaries):
        stripped = binaries["arm"].strip()
        fns = disassemble_binary(stripped)
        assert all(f.name.startswith("sub_") for f in fns)

    def test_corrupt_code_raises(self, binaries):
        import dataclasses

        binary = binaries["x86"]
        bad = dataclasses.replace(binary.functions[0], code=b"\xff\x01\x02")
        with pytest.raises(DisassemblyError):
            disassemble_function(binary, bad)


class TestSemanticRoundTrip:
    """The central property: decompiled(compile(f)) behaves exactly like f."""

    @pytest.mark.parametrize("arch", SUPPORTED_ARCHES)
    def test_known_functions(self, arch):
        interp = Interpreter(library_function_defs() + [DIAMOND, LOOP])
        for fn in (DIAMOND, LOOP):
            decompiled = _decompiled(fn, arch)
            for args in ([0], [1], [5], [-3], [17]):
                expected = interp.run(fn, args)
                actual = run_decompiled(interp, decompiled.ast,
                                        len(fn.params), args)
                assert actual == expected, (arch, fn.name, args)

    @pytest.mark.parametrize("seed", [21, 77])
    def test_generated_corpus(self, seed):
        from repro.lang.generator import generate_corpus

        rng = RNG(seed)
        for pkg in generate_corpus(seed=seed, n_packages=1):
            interp = Interpreter(list(pkg.functions) + library_function_defs())
            for arch, binary in cross_compile(pkg).items():
                decompiled = {f.name: f for f in decompile_binary(binary)}
                for fn in pkg.functions:
                    args = [rng.randint(0, 60) for _ in fn.params]
                    assert run_decompiled(
                        interp, decompiled[fn.name].ast, len(fn.params), args
                    ) == interp.run(fn, args), (arch, fn.name, args)


class TestArchitectureArtefacts:
    """The systematic per-architecture AST differences (paper Figs. 1-2)."""

    def test_arm_predication_flips_comparison(self):
        x86 = _decompiled(DIAMOND, "x86")
        arm = _decompiled(DIAMOND, "arm")
        x86_if = next(n for n in x86.ast.walk() if n.op == Ops.IF)
        arm_if = next(n for n in arm.ast.walk() if n.op == Ops.IF)
        # x86 sees le (strict-immediate normalisation); ARM sees the
        # inverted comparison with swapped arms.
        assert x86_if.children[0].op == Ops.LE
        assert arm_if.children[0].op == Ops.GE

    def test_for_loop_only_on_x86_family(self):
        for arch, expected in (("x86", Ops.FOR), ("x64", Ops.FOR),
                               ("arm", Ops.WHILE), ("ppc", Ops.WHILE)):
            ops = _ops_in(_decompiled(LOOP, arch).ast)
            assert expected in ops, arch

    def test_compound_assignment_only_on_x86_family(self):
        x86_ops = _ops_in(_decompiled(LOOP, "x86").ast)
        ppc_ops = _ops_in(_decompiled(LOOP, "ppc").ast)
        assert Ops.ASG_ADD in x86_ops
        assert Ops.ASG_ADD not in ppc_ops

    def test_arm_diamond_single_block(self):
        assert _decompiled(DIAMOND, "arm").n_blocks == 1
        assert _decompiled(DIAMOND, "x86").n_blocks == 4


class TestDecompiledMetadata:
    @pytest.mark.parametrize("arch", SUPPORTED_ARCHES)
    def test_callees_with_sizes(self, package, binaries, arch):
        binary = binaries[arch]
        fns = decompile_binary(binary)
        by_name = {f.name: f for f in fns}
        for fn in fns:
            for callee_name, size in fn.callees:
                assert size == binary.function_named(callee_name).n_instructions

    def test_callee_count_filter(self, binaries):
        fns = decompile_binary(binaries["x86"])
        for fn in fns:
            assert fn.callee_count(0) == len(fn.callees)
            assert fn.callee_count(10 ** 9) == 0

    def test_ast_size_positive(self, binaries):
        for fn in decompile_binary(binaries["arm"]):
            assert fn.ast_size() >= 1

    def test_decompile_stripped_binary(self, binaries):
        fns = decompile_binary(binaries["ppc"].strip())
        assert all(f.name.startswith("sub_") for f in fns)
        # callee references also use stripped names
        for fn in fns:
            for callee_name, _size in fn.callees:
                assert callee_name.startswith("sub_")

    def test_skip_errors(self, binaries):
        import dataclasses

        binary = binaries["x86"]
        broken = dataclasses.replace(
            binary,
            functions=[
                dataclasses.replace(binary.functions[0], code=b"\xff\x00\x00")
            ] + binary.functions[1:],
        )
        fns = decompile_binary(broken, skip_errors=True)
        assert len(fns) == len(binary.functions) - 1
        with pytest.raises(DecompilationError):
            decompile_binary(broken, skip_errors=False)

    def test_table_one_vocabulary_only(self, binaries):
        """Decompiled ASTs stay within the digitisable Table-I vocabulary."""
        from repro.core.labels import NODE_LABELS

        for arch in SUPPORTED_ARCHES:
            for fn in decompile_binary(binaries[arch]):
                for node in fn.ast.walk():
                    assert node.op in NODE_LABELS


#: Operand payload bytes by tag, per :mod:`repro.binformat.encoding`.
_PAYLOAD = {1: 1, 2: 8, 3: 5, 4: 4, 5: 4, 6: 4}


def _instruction_ends(code: bytes):
    """Byte offset just past each encoded instruction, in order."""
    offset = 0
    while offset < len(code):
        n_operands = code[offset + 2]
        offset += 3
        for _ in range(n_operands):
            offset += 1 + _PAYLOAD[code[offset]]
        yield offset


class TestTruncatedBodies:
    """A function body cut short anywhere either still decompiles or is a
    :class:`DecompilationError` -- never an untyped error from the
    decoder or the lifter, which ``skip_errors`` could not skip."""

    @pytest.mark.parametrize("arch", SUPPORTED_ARCHES)
    def test_every_cut_is_typed(self, binaries, arch):
        import dataclasses

        binary = binaries[arch]
        n_failed = 0
        for record in binary.functions[:6]:
            for cut in range(0, len(record.code), 3):
                damaged = dataclasses.replace(record, code=record.code[:cut])
                try:
                    decompile_function(binary, damaged)
                except DecompilationError:
                    n_failed += 1
        assert n_failed > 0

    def test_branch_ending_the_body_is_a_lift_error(self, binaries):
        """Cut right after a conditional branch: the branch has a taken
        edge but nothing to fall through to."""
        import dataclasses

        from repro.compiler.isa import get_isa

        binary = binaries["x86"]
        isa = get_isa("x86")
        for record in binary.functions:
            asm = disassemble_function(binary, record)
            ends = list(_instruction_ends(record.code))
            for instr, end in zip(asm.instructions, ends):
                if isa.is_conditional_branch(instr.mnemonic):
                    damaged = dataclasses.replace(
                        record, code=record.code[:end]
                    )
                    with pytest.raises(DecompilationError, match="fallthrough"):
                        decompile_function(binary, damaged)
                    return
        pytest.fail("no conditional branch in the x86 binary")
