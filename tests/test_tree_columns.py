"""The columnar tree path, checked against the object path it replaces.

Ingest builds each tree once: preprocessing emits an AST's LCRS
binarisation straight as preorder label/left/right columns, and the
level-batched encoder compiles its plans from those columns.  These tests
pin that path to independent object-graph references -- the
first-child/next-sibling construction and the postorder level scheduler
-- on generated ASTs (including very wide and very deep ones) and on
every function of generated binaries for all four ISAs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.isa import SUPPORTED_ARCHES
from repro.core.labels import NODE_LABELS, NUM_LABELS, label_of
from repro.core.model import Asteria, AsteriaConfig
from repro.core.preprocess import digitize, lcrs_columns, try_preprocess_ast
from repro.decompiler import decompile_binary
from repro.lang import nodes as N
from repro.lang.nodes import Node, Ops
from repro.nn.treebatch import (
    LEAF,
    TreeColumns,
    compile_batch,
    compile_columns,
    encode_plan,
    plan_to_state,
)
from repro.nn.treelstm import BinaryTreeLSTM, BinaryTreeNode, flatten_tree
from repro.pipeline.stages import extract_binary

MIN_AST_SIZE = 5


def _reference_lcrs(ast: Node) -> BinaryTreeNode:
    """Left-child right-sibling as an object graph: a node's first child
    is its left child, each child's next sibling that child's right."""
    root = BinaryTreeNode(label_of(ast.op))
    work = [(ast, root)]
    while work:
        source, produced = work.pop()
        previous = None
        for child in source.children:
            node = BinaryTreeNode(label_of(child.op))
            if previous is None:
                produced.left = node
            else:
                previous.right = node
            previous = node
            work.append((child, node))
    return root


def _columns(trees):
    """Object trees as one batch of preorder columns."""
    return TreeColumns.concat(
        [TreeColumns.single(*flatten_tree(tree)) for tree in trees]
    )


def _compile(trees):
    """Object trees compiled as one chunk, in input order."""
    return compile_batch(_columns(trees))


def _reference_schedule(trees):
    """The postorder level scheduler: each node as ``(level, slot)``.

    Returns per-level ``(label, left ref, right ref)`` lists and the root
    refs, where a ref is ``(level, slot within level)`` and an absent
    child is ``(LEAF, 0)``.
    """
    levels = []
    roots = []
    for tree in trees:
        ref = {}
        for node in tree.postorder():
            left = ref[id(node.left)] if node.left is not None else (LEAF, 0)
            right = ref[id(node.right)] if node.right is not None else (LEAF, 0)
            level = 1 + max(left[0], right[0])
            if level == len(levels):
                levels.append([])
            ref[id(node)] = (level, len(levels[level]))
            levels[level].append((node.label, left, right))
        roots.append(ref[id(tree)])
    return levels, roots


def _schedule_of(batch):
    """A compiled batch in :func:`_reference_schedule`'s terms."""
    def refs(rows):
        level, slot = batch.level_refs(np.asarray(rows, dtype=np.int64))
        return list(zip(level.tolist(), slot.tolist()))

    levels = [
        list(zip(lv.labels.tolist(), refs(lv.left_global),
                 refs(lv.right_global)))
        for lv in batch.levels
    ]
    return levels, refs(batch.root_global)


@st.composite
def asts(draw, depth=4):
    op = draw(st.sampled_from(sorted(NODE_LABELS)))
    if depth == 0:
        return Node(op)
    n_children = draw(st.integers(min_value=0, max_value=4))
    return Node(op, tuple(draw(asts(depth=depth - 1))
                          for _ in range(n_children)))


def _wide():
    return N.block(*[N.num(i) for i in range(5000)])


def _deep():
    node = N.num(0)
    for _ in range(1999):
        node = Node(Ops.NEG, (node,))
    return node


@pytest.fixture(scope="module")
def extracted(binaries):
    return {
        arch: extract_binary(binaries[arch], MIN_AST_SIZE)
        for arch in SUPPORTED_ARCHES
    }


class TestColumns:
    @settings(max_examples=60, deadline=None)
    @given(asts())
    def test_columns_are_the_lcrs_preorder(self, ast):
        columns = lcrs_columns(ast)
        assert columns == flatten_tree(_reference_lcrs(ast))
        assert columns == flatten_tree(digitize(ast))
        assert len(columns[0]) == ast.size()

    @pytest.mark.parametrize("make, size", [(_wide, 5001), (_deep, 2000)])
    def test_wide_and_deep(self, make, size):
        ast = make()
        columns = lcrs_columns(ast)
        assert len(columns[0]) == size
        assert columns == flatten_tree(_reference_lcrs(ast))
        assert flatten_tree(digitize(ast)) == columns

    @pytest.mark.parametrize("arch", SUPPORTED_ARCHES)
    def test_extracted_arrays_match_object_path(
        self, binaries, extracted, arch
    ):
        """Every function: the ExtractedBinary columns are what the
        object path (preprocess, then flatten) would have stored."""
        ext = extracted[arch]
        fns = decompile_binary(binaries[arch], skip_errors=True)
        kept = [
            fn for fn in fns
            if try_preprocess_ast(fn.ast, MIN_AST_SIZE) is not None
        ]
        trees = [flatten_tree(_reference_lcrs(fn.ast)) for fn in kept]
        assert ext.names == [fn.name for fn in kept]
        assert ext.n_decompiled == len(fns)
        assert ext.n_skipped_small == len(fns) - len(kept)
        for got, want in (
            (ext.ast_sizes, [fn.ast_size() for fn in kept]),
            (ext.labels, [x for tree in trees for x in tree[0]]),
            (ext.lefts, [x for tree in trees for x in tree[1]]),
            (ext.rights, [x for tree in trees for x in tree[2]]),
            (ext.tree_offsets,
             np.cumsum([0] + [len(tree[0]) for tree in trees]).tolist()),
        ):
            assert got.dtype == np.int64
            assert got.tolist() == want
        assert [flatten_tree(t) for t in ext.trees()] == trees


class TestColumnPlans:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(asts(), min_size=1, max_size=6))
    def test_schedule_is_the_postorder_schedule(self, batch):
        """Same levels, same node order within each level, same child
        and root rows as the postorder scheduler (so ``ctrees`` objects
        keep their layout)."""
        trees = [_reference_lcrs(ast) for ast in batch]
        assert _schedule_of(_compile(trees)) == \
            _reference_schedule(trees)

    def test_wide_and_deep_schedule(self):
        trees = [_reference_lcrs(_wide()), _reference_lcrs(_deep())]
        compiled = _compile(trees)
        assert _schedule_of(compiled) == _reference_schedule(trees)
        # the wide block binarises to a 5 000-long right spine
        assert len(compiled.levels) == 5001

    @pytest.mark.parametrize("arch", SUPPORTED_ARCHES)
    def test_column_plan_is_the_tree_plan(self, extracted, arch):
        """The replay's object-tree compile makes the columns' plan."""
        ext = extracted[arch]
        model = Asteria(AsteriaConfig(hidden_dim=16))
        from_columns = plan_to_state(compile_columns(ext.columns(), 8))
        from_trees = plan_to_state(model.compile_plan(ext.trees(), 8))
        assert from_columns.keys() == from_trees.keys()
        for key, value in from_columns.items():
            assert np.array_equal(value, from_trees[key]), key

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("arch", SUPPORTED_ARCHES)
    def test_encodes_bit_identically(self, extracted, arch, dtype):
        ext = extracted[arch]
        lstm = BinaryTreeLSTM(NUM_LABELS, 8, 16, seed=3)
        reference = encode_plan(
            lstm, compile_columns(_columns(ext.trees()), 1, bucketed=False),
            dtype=dtype,
        )
        plan = compile_columns(ext.columns(), 64)
        assert np.array_equal(encode_plan(lstm, plan, dtype=dtype), reference)

    def test_child_before_parent_rejected(self):
        columns = TreeColumns(
            labels=np.array([1, 2], dtype=np.int64),
            lefts=np.array([-1, 0], dtype=np.int64),
            rights=np.array([-1, -1], dtype=np.int64),
            offsets=np.array([0, 2], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="precedes its parent"):
            compile_columns(columns, 8)
