"""Tests for the optimiser passes and CFG construction."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import ir as IR
from repro.compiler.cfg import BasicBlock, ControlFlowGraph, build_cfg
from repro.compiler.codegen import select_instructions
from repro.compiler.ir import lower_function
from repro.compiler.optimizer import (
    DEFAULT_INLINE_THRESHOLDS,
    fold_constants,
    inline_small_functions,
)
from repro.compiler.pipeline import library_function_defs
from repro.lang import nodes as N
from repro.lang.interp import Interpreter
from repro.lang.nodes import FunctionDef, Node, Ops, Package
from repro.utils.rng import RNG


def _leaf(name="leaf", n_stmts=1):
    stmts = [
        N.asg(N.var("v0"), N.binop(Ops.ADD, N.var("a0"), N.num(i + 1)))
        for i in range(n_stmts)
    ]
    return FunctionDef(name, ("a0",), ("v0",), N.block(*stmts, N.ret(N.var("v0"))))


def _caller(callee="leaf"):
    body = N.block(
        N.asg(N.var("v0"), N.call(callee, N.var("a0"))),
        N.ret(N.var("v0")),
    )
    return FunctionDef("caller", ("a0",), ("v0",), body)


class TestInlining:
    def test_small_leaf_inlined(self):
        package = Package("p", [_leaf(n_stmts=1), _caller()])
        inlined = inline_small_functions(package, threshold=2)
        caller = inlined.function("caller")
        assert "leaf" not in caller.callee_names()

    def test_above_threshold_not_inlined(self):
        package = Package("p", [_leaf(n_stmts=3), _caller()])
        inlined = inline_small_functions(package, threshold=2)
        assert "leaf" in inlined.function("caller").callee_names()

    def test_inlining_preserves_semantics(self):
        package = Package("p", [_leaf(n_stmts=2), _caller()])
        inlined = inline_small_functions(package, threshold=3)
        rng = RNG(0)
        plain = Interpreter(package.functions)
        opt = Interpreter(inlined.functions)
        for _ in range(10):
            arg = rng.randint(0, 1000)
            assert plain.call("caller", [arg]) == opt.call("caller", [arg])

    def test_control_flow_callee_never_inlined(self):
        body = N.block(
            N.if_(N.binop(Ops.LT, N.var("a0"), N.num(1)),
                  N.block(N.ret(N.num(0)))),
            N.ret(N.var("a0")),
        )
        callee = FunctionDef("cf", ("a0",), (), body)
        caller = _caller("cf")
        inlined = inline_small_functions(Package("p", [callee, caller]), 10)
        assert "cf" in inlined.function("caller").callee_names()

    def test_bare_call_statement_inlined(self):
        body = N.block(
            N.asg(N.var("v0"), N.num(1)),
            Node(Ops.CALL, (N.var("a0"),), value="leaf"),
            N.ret(N.var("v0")),
        )
        caller = FunctionDef("caller", ("a0",), ("v0",), body)
        inlined = inline_small_functions(Package("p", [_leaf(), caller]), 2)
        assert "leaf" not in inlined.function("caller").callee_names()

    def test_inline_inside_nested_blocks(self):
        body = N.block(
            N.if_(N.binop(Ops.GT, N.var("a0"), N.num(0)),
                  N.block(N.asg(N.var("v0"), N.call("leaf", N.var("a0"))))),
            N.ret(N.var("v0")),
        )
        caller = FunctionDef("caller", ("a0",), ("v0",), body)
        inlined = inline_small_functions(Package("p", [_leaf(), caller]), 2)
        assert "leaf" not in inlined.function("caller").callee_names()

    def test_per_arch_thresholds_defined(self):
        assert set(DEFAULT_INLINE_THRESHOLDS) == {"x86", "x64", "arm", "ppc"}
        # different cost models must actually differ
        assert len(set(DEFAULT_INLINE_THRESHOLDS.values())) > 1

    def test_library_defs_straddle_thresholds(self, library_defs):
        """The mini-libc was designed so some leaves inline only on some
        architectures (this is what exercises calibration)."""
        stmt_counts = {fn.name: len(fn.body.children) - 1 for fn in library_defs}
        lo, hi = min(DEFAULT_INLINE_THRESHOLDS.values()), max(
            DEFAULT_INLINE_THRESHOLDS.values()
        )
        assert any(lo < count <= hi for count in stmt_counts.values())


class TestConstantFolding:
    def test_folds_binop(self):
        fn = FunctionDef("f", (), ("v0",), N.block(
            N.asg(N.var("v0"), N.binop(Ops.ADD, N.num(2), N.num(3))),
            N.ret(N.var("v0")),
        ))
        ir = fold_constants(lower_function(fn))
        assert not any(isinstance(i, IR.BinOp) for i in ir.instructions)
        move = next(i for i in ir.instructions if isinstance(i, IR.Move))
        assert move.src == IR.Imm(5)

    def test_folds_c_division(self):
        fn = FunctionDef("f", (), ("v0",), N.block(
            N.asg(N.var("v0"), N.binop(Ops.DIV, N.num(-7), N.num(2))),
            N.ret(N.var("v0")),
        ))
        ir = fold_constants(lower_function(fn))
        move = next(i for i in ir.instructions if isinstance(i, IR.Move))
        assert move.src == IR.Imm(-3)  # trunc toward zero

    def test_division_by_zero_not_folded(self):
        ir = IR.IRFunction("f", (), ("v0",), [
            IR.BinOp(IR.Var("v0"), Ops.DIV, IR.Imm(1), IR.Imm(0)),
            IR.Ret(IR.Imm(0)),
        ])
        folded = fold_constants(ir)
        assert isinstance(folded.instructions[0], IR.BinOp)

    def test_folds_negation(self):
        ir = IR.IRFunction("f", (), ("v0",), [
            IR.UnOp(IR.Var("v0"), Ops.NEG, IR.Imm(5)),
            IR.Ret(IR.Imm(0)),
        ])
        folded = fold_constants(ir)
        assert folded.instructions[0] == IR.Move(IR.Var("v0"), IR.Imm(-5))

    def test_non_constant_untouched(self):
        fn = FunctionDef("f", ("a0",), ("v0",), N.block(
            N.asg(N.var("v0"), N.binop(Ops.ADD, N.var("a0"), N.num(3))),
            N.ret(N.var("v0")),
        ))
        ir = lower_function(fn)
        assert [str(i) for i in fold_constants(ir).instructions] == [
            str(i) for i in ir.instructions
        ]


DIAMOND = FunctionDef("f", ("a0",), ("v0",), N.block(
    N.if_(N.binop(Ops.LT, N.var("a0"), N.num(1)),
          N.block(N.asg(N.var("v0"), N.num(1))),
          N.block(N.asg(N.var("v0"), N.var("a0")))),
    N.ret(N.var("v0")),
))


class TestCFG:
    def test_straight_line_single_block(self):
        fn = FunctionDef("f", ("a0",), ("v0",), N.block(
            N.asg(N.var("v0"), N.var("a0")), N.ret(N.var("v0"))
        ))
        cfg = build_cfg(select_instructions(lower_function(fn), "x86"))
        assert cfg.block_count == 1

    def test_diamond_x86_has_four_blocks(self):
        """Paper Figure 2(c): four blocks on x86."""
        cfg = build_cfg(select_instructions(lower_function(DIAMOND), "x86"))
        assert cfg.block_count == 4

    def test_diamond_arm_single_block(self):
        """Paper Figure 2(d): predication collapses ARM to one block."""
        cfg = build_cfg(select_instructions(lower_function(DIAMOND), "arm"))
        assert cfg.block_count == 1

    def test_edge_kinds(self):
        cfg = build_cfg(select_instructions(lower_function(DIAMOND), "x86"))
        kinds = {cfg.edge_kind(u, v) for u, v, _ in cfg.edges()}
        assert kinds == {"taken", "fallthrough", "jump"}

    def test_loop_has_back_edge(self):
        fn = FunctionDef("f", ("a0",), ("v0",), N.block(
            N.asg(N.var("v0"), N.num(0)),
            N.while_(N.binop(Ops.LT, N.var("v0"), N.var("a0")),
                     N.block(N.binop(Ops.ASG_ADD, N.var("v0"), N.num(1)))),
            N.ret(N.var("v0")),
        ))
        cfg = build_cfg(select_instructions(lower_function(fn), "ppc"))
        # some edge goes backwards in block order
        assert any(v <= u for u, v, _ in cfg.edges())

    def test_exit_blocks(self):
        cfg = build_cfg(select_instructions(lower_function(DIAMOND), "x86"))
        exits = cfg.exit_blocks()
        assert len(exits) == 1

    def test_block_at(self):
        cfg = build_cfg(select_instructions(lower_function(DIAMOND), "x86"))
        assert cfg.block_at(0).block_id == 0
        with pytest.raises(KeyError):
            cfg.block_at(10_000)

    @pytest.mark.parametrize("arch", ["x86", "x64", "arm", "ppc"])
    def test_branch_to_its_fallthrough_is_one_fallthrough_edge(self, arch):
        """An empty if-arm compiles to a branch whose target is the next
        instruction: one edge per (src, dst), of kind fallthrough."""
        fn = FunctionDef("f", ("a0",), ("v0",), N.block(
            N.asg(N.var("v0"), N.var("a0")),
            N.if_(N.binop(Ops.LT, N.var("a0"), N.num(1)), N.block()),
            N.ret(N.var("v0")),
        ))
        cfg = build_cfg(select_instructions(lower_function(fn), arch))
        assert cfg.succ == [{"fallthrough": 1}, {}]
        assert list(cfg.edges()) == [(0, 1, "fallthrough")]
        assert cfg.edge_kind(0, 1) == "fallthrough"
        assert cfg.successors(0) == [1] and cfg.predecessors(1) == [0]
        with pytest.raises(KeyError):
            cfg.edge_kind(1, 0)


@st.composite
def successor_tables(draw):
    """Rows of at most two out-edges over up to 12 blocks: self-loops,
    back edges and unreachable blocks arise freely, and a branch whose
    taken target is its fallthrough keeps the single fallthrough edge."""
    n = draw(st.integers(min_value=1, max_value=12))
    target = st.integers(min_value=0, max_value=n - 1)
    succ = []
    for _ in range(n):
        shape = draw(st.sampled_from(["exit", "jump", "fallthrough", "branch"]))
        if shape == "exit":
            row = {}
        elif shape == "branch":
            taken, fallthrough = draw(target), draw(target)
            row = {"fallthrough": fallthrough}
            if taken != fallthrough:
                row = {"taken": taken, "fallthrough": fallthrough}
        else:
            row = {shape: draw(target)}
        succ.append(row)
    return succ


def _nx_oracle(cfg):
    """networkx's immediate dominators and the loop heads the structurer
    derived from them: ``v`` for each edge ``u -> v`` where ``v``
    dominates ``u``."""
    graph = nx.DiGraph()
    graph.add_nodes_from(cfg.blocks)
    graph.add_edges_from((u, v) for u, v, _ in cfg.edges())
    idom = nx.immediate_dominators(graph, cfg.entry)
    idom.pop(cfg.entry, None)  # networkx < 3.5 maps the start to itself

    def dominates(a, b):
        while b != a:
            b = idom.get(b)
            if b is None:
                return False
        return True

    return idom, {v for u, v in graph.edges() if dominates(v, u)}


class TestDominators:
    @settings(max_examples=300, deadline=None)
    @given(successor_tables())
    def test_matches_networkx(self, succ):
        blocks = {b: BasicBlock(block_id=b, start=b, end=b)
                  for b in range(len(succ))}
        cfg = ControlFlowGraph(function=None, blocks=blocks, succ=succ,
                               entry=0)
        idom, heads = _nx_oracle(cfg)
        assert cfg.immediate_dominators() == idom
        assert cfg.loop_heads() == heads

    @pytest.mark.parametrize("arch", ["x86", "x64", "arm", "ppc"])
    def test_library_functions_match_networkx(self, arch):
        for fn in library_function_defs():
            cfg = build_cfg(select_instructions(lower_function(fn), arch))
            idom, heads = _nx_oracle(cfg)
            assert cfg.immediate_dominators() == idom
            assert cfg.loop_heads() == heads
