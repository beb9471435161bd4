"""Tests for the level-batched Tree-LSTM engine.

The batched paths (numpy inference + autograd training) are verified
numerically equivalent to the sequential per-tree reference -- forward to
1e-10, full parameter gradients to 1e-8 -- on randomized trees, plus the
edge cases: empty batch, single-node trees, deep spines, duplicated tree
objects, and the shared-subtree DAG guard.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.tensor import no_grad, stable_sigmoid
from repro.nn.treebatch import (
    BLOCK_CANDIDATES,
    DEFAULT_NODE_BUDGET,
    TreeColumns,
    _blocked_mm,
    compile_batch,
    compile_columns,
    encode_batch,
    encode_batch_states,
    encode_plan,
    pack_weights,
    plan_chunks,
    plan_to_state,
    resolve_block,
    resolve_node_budget,
)
from repro.nn.treelstm import BinaryTreeLSTM, BinaryTreeNode, flatten_tree
from repro.utils.rng import RNG


def _chain(length, label=1):
    root = BinaryTreeNode(label)
    node = root
    for _ in range(length - 1):
        node.right = BinaryTreeNode(label)
        node = node.right
    return root


def _columns(trees):
    """Object trees as one batch of preorder columns."""
    return TreeColumns.concat(
        [TreeColumns.single(*flatten_tree(tree)) for tree in trees]
    )


def _compile(trees):
    """Object trees compiled as one chunk, in input order."""
    return compile_batch(_columns(trees))


def _random_tree(rng: RNG, depth: int = 5) -> BinaryTreeNode:
    node = BinaryTreeNode(rng.randint(1, 40))
    if depth > 0 and rng.random() < 0.6:
        node.left = _random_tree(rng.child("l"), depth - 1)
    if depth > 0 and rng.random() < 0.6:
        node.right = _random_tree(rng.child("r"), depth - 1)
    return node


def _random_batch(seed: int, n: int = 12):
    rng = RNG(seed)
    return [_random_tree(rng.child("tree", i)) for i in range(n)]


@st.composite
def binary_trees(draw, max_depth=4):
    label = draw(st.integers(min_value=1, max_value=40))
    node = BinaryTreeNode(label)
    if max_depth > 0 and draw(st.booleans()):
        node.left = draw(binary_trees(max_depth=max_depth - 1))
    if max_depth > 0 and draw(st.booleans()):
        node.right = draw(binary_trees(max_depth=max_depth - 1))
    return node


class TestCompiler:
    def test_levels_partition_nodes(self):
        trees = _random_batch(0)
        compiled = _compile(trees)
        assert compiled.n_nodes == sum(tree.size() for tree in trees)
        assert sum(level.size for level in compiled.levels) == compiled.n_nodes
        assert compiled.n_trees == len(trees)

    def test_children_at_lower_levels(self):
        compiled = _compile(_random_batch(1))
        for lvl, level in enumerate(compiled.levels):
            for side in ("left", "right"):
                src, _ = compiled.level_refs(getattr(level, f"{side}_global"))
                assert np.all(src < lvl)

    def test_single_node_tree(self):
        compiled = _compile([BinaryTreeNode(7)])
        assert compiled.n_nodes == 1
        assert len(compiled.levels) == 1
        assert np.all(compiled.levels[0].left_global == compiled.n_nodes)

    def test_empty_batch(self):
        compiled = _compile([])
        assert compiled.n_trees == 0
        assert compiled.n_nodes == 0
        assert compiled.levels == []

    def test_shared_subtree_rejected(self):
        shared = BinaryTreeNode(2)
        root = BinaryTreeNode(1, left=shared, right=shared)
        with pytest.raises(ValueError, match="shared-subtree"):
            _compile([root])

    def test_duplicate_tree_objects_allowed(self):
        """The same tree *object* twice in a batch is just encoded twice."""
        tree = _random_tree(RNG(3))
        model = BinaryTreeLSTM(49, 8, 16, seed=0)
        out = encode_batch(model, _compile([tree, tree]))
        np.testing.assert_array_equal(out[0], out[1])


class TestForwardEquivalence:
    @pytest.fixture(scope="class")
    def model(self):
        return BinaryTreeLSTM(49, 8, 16, seed=5)

    def _sequential(self, model, trees):
        with no_grad():
            return np.stack([model(tree).data for tree in trees])

    def test_batched_matches_sequential(self, model):
        trees = _random_batch(7, n=20) + [BinaryTreeNode(3), _chain(40)]
        expected = self._sequential(model, trees)
        np.testing.assert_allclose(
            encode_batch(model, _compile(trees)), expected, atol=1e-10
        )
        np.testing.assert_allclose(
            encode_batch_states(model, _compile(trees)).data, expected,
            atol=1e-10,
        )

    def test_empty_batch(self, model):
        assert encode_batch(model, _compile([])).shape == (0, 16)
        assert encode_batch_states(model, _compile([])).shape == (0, 16)

    def test_single_node_trees(self, model):
        trees = [BinaryTreeNode(i) for i in range(1, 6)]
        np.testing.assert_allclose(
            encode_batch(model, _compile(trees)),
            self._sequential(model, trees), atol=1e-10,
        )

    def test_deep_spine_no_recursion_error(self):
        model = BinaryTreeLSTM(49, 4, 8, seed=0)
        out = encode_batch(
            model, _compile([_chain(3000), BinaryTreeNode(1)])
        )
        assert np.all(np.isfinite(out))

    def test_out_of_range_label_rejected(self, model):
        """Batched paths enforce the same range check as Embedding.forward."""
        for bad in (-1, 49):
            trees = [_chain(3), BinaryTreeNode(bad)]
            with pytest.raises(IndexError, match="out of range"):
                encode_batch(model, _compile(trees))
            with pytest.raises(IndexError, match="out of range"):
                encode_batch_states(model, _compile(trees))

    def test_leaf_init_one_supported(self):
        model = BinaryTreeLSTM(49, 8, 16, seed=2, leaf_init="one")
        trees = _random_batch(9, n=6)
        np.testing.assert_allclose(
            encode_batch(model, _compile(trees)),
            self._sequential(model, trees), atol=1e-10,
        )

    def test_bitwise_consistent_across_batch_sizes(self, model):
        trees = _random_batch(11, n=50)
        full = encode_batch(model, _compile(trees))
        for batch_size in (1, 7, 16):
            chunked = np.concatenate([
                encode_batch(model, _compile(trees[i:i + batch_size]))
                for i in range(0, len(trees), batch_size)
            ])
            np.testing.assert_array_equal(full, chunked)

    @settings(max_examples=15, deadline=None)
    @given(binary_trees())
    def test_property_single_tree_equivalence(self, tree):
        model = BinaryTreeLSTM(49, 6, 10, seed=9)
        expected = self._sequential(model, [tree])
        np.testing.assert_allclose(
            encode_batch(model, _compile([tree])), expected, atol=1e-10
        )


class TestGradientEquivalence:
    def _grads(self, model):
        return {name: p.grad.copy() for name, p in model.named_parameters()}

    def test_full_parameter_gradients_match(self):
        """Batched backward == accumulated per-tree sequential backward."""
        trees = _random_batch(13, n=16) + [BinaryTreeNode(2), _chain(30)]
        model = BinaryTreeLSTM(49, 8, 16, seed=4)
        model.zero_grad()
        for tree in trees:
            model(tree).sum().backward()
        expected = self._grads(model)
        model.zero_grad()
        encode_batch_states(model, _compile(trees)).sum().backward()
        for name, parameter in model.named_parameters():
            np.testing.assert_allclose(
                parameter.grad, expected[name], atol=1e-8, err_msg=name
            )

    @settings(max_examples=10, deadline=None)
    @given(binary_trees())
    def test_property_gradients_match(self, tree):
        model = BinaryTreeLSTM(49, 6, 10, seed=9)
        model.zero_grad()
        model(tree).sum().backward()
        expected = self._grads(model)
        model.zero_grad()
        encode_batch_states(model, _compile([tree])).sum().backward()
        for name, parameter in model.named_parameters():
            np.testing.assert_allclose(
                parameter.grad, expected[name], atol=1e-8, err_msg=name
            )

    def test_weighted_roots_gradients_match(self):
        """Non-uniform downstream gradients route to the right trees."""
        trees = _random_batch(17, n=6)
        weights = np.linspace(0.5, 2.5, len(trees))
        model = BinaryTreeLSTM(49, 8, 16, seed=6)
        model.zero_grad()
        for w, tree in zip(weights, trees):
            (model(tree).sum() * float(w)).backward()
        expected = self._grads(model)
        model.zero_grad()
        roots = encode_batch_states(model, _compile(trees))
        total = None
        for j, w in enumerate(weights):
            term = roots[j].sum() * float(w)
            total = term if total is None else total + term
        total.backward()
        for name, parameter in model.named_parameters():
            np.testing.assert_allclose(
                parameter.grad, expected[name], atol=1e-8, err_msg=name
            )


class TestDagGuard:
    def test_encode_states_rejects_shared_subtree(self):
        shared = BinaryTreeNode(2, left=BinaryTreeNode(3))
        root = BinaryTreeNode(1, left=shared, right=shared)
        model = BinaryTreeLSTM(49, 8, 16, seed=0)
        with pytest.raises(ValueError, match="shared-subtree"):
            model.encode_states(root)

    def test_deeper_shared_node_rejected(self):
        shared = BinaryTreeNode(5)
        root = BinaryTreeNode(
            1,
            left=BinaryTreeNode(2, left=shared),
            right=BinaryTreeNode(3, right=shared),
        )
        model = BinaryTreeLSTM(49, 8, 16, seed=0)
        with pytest.raises(ValueError, match="shared-subtree"):
            model.encode_states(root)


class TestPlans:
    """Bucketed chunk planning, plan serialization and the float32 path."""

    @pytest.fixture(scope="class")
    def model(self):
        return BinaryTreeLSTM(49, 8, 16, seed=3)

    def test_plan_chunks_partition_and_caps(self):
        sizes = [3, 40, 1, 17, 25, 9, 2, 33, 5, 12]
        chunks = plan_chunks(sizes, batch_size=3, node_budget=50)
        flat = np.concatenate(chunks)
        assert sorted(flat.tolist()) == list(range(len(sizes)))
        for chunk in chunks:
            assert len(chunk) <= 3
            total = sum(sizes[i] for i in chunk)
            assert total <= 50 or len(chunk) == 1
        # bucketed: visiting chunks in order walks sizes non-decreasing
        visited = [sizes[i] for chunk in chunks for i in chunk]
        assert visited == sorted(visited)

    def test_oversized_tree_gets_its_own_chunk(self):
        chunks = plan_chunks([100, 2, 100], batch_size=4, node_budget=10)
        assert all(
            len(chunk) == 1 for chunk in chunks if 100 in
            [[100, 2, 100][i] for i in chunk]
        )

    def test_bucketed_equals_unbucketed_bitwise(self, model):
        trees = _random_batch(21, n=40) + [BinaryTreeNode(3), _chain(30)]
        one_batch = encode_batch(model, _compile(trees))
        columns = _columns(trees)
        bucketed = encode_plan(
            model, compile_columns(columns, 8, node_budget=200)
        )
        # the unbucketed reference: one chunk, in input order
        assert np.array_equal(bucketed, one_batch)

    def test_serialization_roundtrip_bitwise(self, model):
        trees = _random_batch(23, n=24) + [BinaryTreeNode(1)]
        plan = compile_columns(_columns(trees), 8, node_budget=150)
        state = plan_to_state(plan)
        assert all(isinstance(v, np.ndarray) for v in state.values())
        # one child addressing per level: the state-buffer rows
        assert {k[3:] for k in state if k.startswith("c0_")} == {
            "indices", "level_sizes", "labels", "left_global",
            "right_global", "root_global",
        }

    def test_float32_path_tracks_float64(self, model):
        trees = _random_batch(25, n=30)
        plan = compile_columns(_columns(trees), 8)
        f64 = encode_plan(model, plan)
        f32 = encode_plan(model, plan, dtype=np.float32)
        assert f32.dtype == np.float32
        assert f64.dtype == np.float64
        np.testing.assert_allclose(f32, f64, atol=1e-5)

    def test_pack_weights_never_stale(self, model):
        tree = _chain(5)
        before = encode_batch(model, _compile([tree])).copy()
        original = model.w_i.data.copy()
        try:
            model.w_i.data += 0.25
            after = encode_batch(model, _compile([tree]))
        finally:
            model.w_i.data[...] = original
        assert not np.array_equal(before, after)

    def test_resolve_block_precedence(self, monkeypatch):
        """Explicit beats the probe; the environment is not a third
        source (``REPRO_ENCODE_BLOCK`` is read by nothing)."""
        assert resolve_block(48) == 48
        probed = resolve_block(0, hidden_dim=16)
        monkeypatch.setenv("REPRO_ENCODE_BLOCK", "96")
        assert resolve_block(0, hidden_dim=16) == probed
        with pytest.raises(ValueError):
            resolve_block(-1)

    def test_resolve_block_probe_is_memoized(self):
        first = resolve_block(0, hidden_dim=16)
        assert first in (16, 32, 64, 128, 256)
        assert resolve_block(0, hidden_dim=16) == first

    def test_concurrent_first_probes_get_one_block(self, monkeypatch):
        """Threads racing the first probe each time their own candidate
        but all encode with the one block stored first; a per-thread
        block would break bit-reproducibility across concurrent
        encodes."""
        import threading

        import repro.nn.treebatch as treebatch

        n_threads = 4
        rendezvous = threading.Barrier(n_threads)
        calls = iter(range(1, n_threads + 1))

        def probe(hidden_dim, dtype):
            block = 16 * next(calls)  # a different winner per call
            rendezvous.wait(timeout=10)  # every thread is mid-probe
            return block

        monkeypatch.setattr(treebatch, "_PROBED_BLOCKS", {})
        monkeypatch.setattr(treebatch, "_probe_block", probe)
        blocks = []
        threads = [
            threading.Thread(
                target=lambda: blocks.append(resolve_block(0, 16))
            )
            for _ in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(blocks) == n_threads
        assert len(set(blocks)) == 1, blocks
        assert resolve_block(0, 16) == blocks[0]

    def test_one_tree_columns_encode_as_the_batch_does(self, model):
        """Columns sliced to one tree each and concatenated back encode
        bit for bit as the object trees do in one batch."""
        trees = _random_batch(27, n=9) + [BinaryTreeNode(2)]
        columns = _columns(trees)
        parts = [columns.tree(t) for t in range(len(trees))]
        again = TreeColumns.concat(parts)
        for name in ("labels", "lefts", "rights", "offsets"):
            assert np.array_equal(getattr(again, name),
                                  getattr(columns, name))
        single = TreeColumns.single(*flatten_tree(trees[3]))
        assert np.array_equal(single.labels, parts[3].labels)
        assert single.offsets.tolist() == parts[3].offsets.tolist()
        reference = encode_batch(model, _compile(trees))
        assert np.array_equal(
            encode_plan(model, compile_columns(again, 4)), reference
        )
        assert np.array_equal(
            encode_plan(model, compile_columns(parts[3], 4))[0],
            reference[3],
        )

    def test_resolve_node_budget_precedence(self, monkeypatch):
        assert resolve_node_budget(100) == 100
        monkeypatch.setenv("REPRO_ENCODE_NODE_BUDGET", "321")
        assert resolve_node_budget(0) == DEFAULT_NODE_BUDGET
        with pytest.raises(ValueError):
            resolve_node_budget(-1)

    def test_pack_weights_dtype_cast(self, model):
        pack = pack_weights(model, np.float32)
        assert pack.w_all.dtype == np.float32
        assert pack.u_lr.shape == (2 * model.hidden_dim,
                                   5 * model.hidden_dim)
        assert pack.bias.shape == (5 * model.hidden_dim,)


def _pinned_corpus() -> TreeColumns:
    """49 random trees (1-299 nodes, labels over the whole vocabulary)
    as preorder-numbered columns, from a fixed seed."""
    gen = np.random.default_rng(44)
    parts = []
    for size in gen.integers(1, 160, size=48).tolist() + [300]:
        lefts = np.full(size, -1, np.int64)
        rights = np.full(size, -1, np.int64)
        for child in range(1, size):
            parent = int(gen.integers(0, child))
            while lefts[parent] != -1 and rights[parent] != -1:
                parent = int(gen.integers(0, child))
            if rights[parent] != -1 or (
                lefts[parent] == -1 and gen.random() < 0.5
            ):
                lefts[parent] = child
            else:
                rights[parent] = child
        parts.append(
            TreeColumns.single(gen.integers(0, 49, size), lefts, rights)
        )
    return TreeColumns.concat(parts)


class TestBitIdentity:
    """The label-projection table is exact, and the encoder's bytes are
    pinned: a speed change to the inference loop must not move them."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("block", BLOCK_CANDIDATES)
    def test_a_projected_row_is_the_gathered_rows_product(self, block,
                                                          dtype):
        pack = pack_weights(BinaryTreeLSTM(49, 16, 64, seed=2), dtype)
        proj = _blocked_mm(pack.emb, pack.w_all, block)
        gen = np.random.default_rng(block)
        for rows in sorted({1, block - 1, block, block + 1, 2 * block + 3,
                            3 * block}):
            labels = gen.integers(0, 49, size=rows)
            gathered = _blocked_mm(pack.emb[labels], pack.w_all, block)
            assert gathered.dtype == proj.dtype
            assert np.array_equal(gathered, proj[labels])

    #: sha256 prefix of the float64 root encodings of
    #: :func:`_pinned_corpus` under ``BinaryTreeLSTM(49, 16, 64,
    #: seed=0)``, the same at every block; computed by the encoder that
    #: ran one ``emb[labels] @ W`` GEMM per level
    PINNED = "f5e60a746f9bd5cf"

    @pytest.mark.parametrize("block", BLOCK_CANDIDATES)
    def test_float64_encodings_are_pinned(self, block):
        vectors = encode_plan(
            BinaryTreeLSTM(49, 16, 64, seed=0),
            compile_columns(_pinned_corpus(), 64), block=block,
        )
        assert vectors.shape == (49, 64)
        digest = hashlib.sha256(vectors.tobytes()).hexdigest()
        assert digest[:16] == self.PINNED

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_one_tree_encodes_equal_the_wide_encode(self, dtype):
        model = BinaryTreeLSTM(49, 16, 64, seed=0)
        columns = _pinned_corpus()
        wide = encode_plan(model, compile_columns(columns, 64), dtype=dtype,
                           block=32)
        for t in range(0, 49, 6):
            single = encode_plan(model, compile_columns(columns.tree(t), 1),
                                 dtype=dtype, block=32)
            assert np.array_equal(single[0], wide[t])


class TestStableSigmoid:
    def test_no_overflow_warning(self):
        with np.errstate(over="raise"):
            out = stable_sigmoid(np.array([-1e4, -100.0, 0.0, 100.0, 1e4]))
        np.testing.assert_allclose(out, [0.0, 0.0, 0.5, 1.0, 1.0], atol=1e-40)

    def test_matches_naive_in_safe_range(self):
        x = np.linspace(-30, 30, 301)
        np.testing.assert_allclose(
            stable_sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-15
        )

    def test_scalar_input(self):
        assert float(stable_sigmoid(np.float64(0.0))) == 0.5
