"""Tests for the Binary Tree-LSTM (incl. fused/reference equivalence as a
hypothesis property) and the structure2vec network."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.graphnet import Structure2Vec, cosine_similarity
from repro.nn.tensor import Tensor
from repro.nn.treelstm import BinaryTreeLSTM, BinaryTreeNode
from repro.utils.rng import RNG


def _chain(length, label=1):
    """A right-spine chain of the given length."""
    root = BinaryTreeNode(label)
    node = root
    for _ in range(length - 1):
        node.right = BinaryTreeNode(label)
        node = node.right
    return root


@st.composite
def binary_trees(draw, max_depth=5):
    label = draw(st.integers(min_value=1, max_value=40))
    node = BinaryTreeNode(label)
    if max_depth > 0 and draw(st.booleans()):
        node.left = draw(binary_trees(max_depth=max_depth - 1))
    if max_depth > 0 and draw(st.booleans()):
        node.right = draw(binary_trees(max_depth=max_depth - 1))
    return node


class TestBinaryTreeNode:
    def test_size(self):
        assert _chain(5).size() == 5

    def test_postorder_children_first(self):
        root = BinaryTreeNode(1, BinaryTreeNode(2), BinaryTreeNode(3))
        order = [n.label for n in root.postorder()]
        assert order == [2, 3, 1]

    def test_postorder_covers_all(self):
        tree = _chain(10)
        assert len(list(tree.postorder())) == 10


class TestTreeLSTM:
    def test_encoding_shape(self):
        model = BinaryTreeLSTM(49, 8, 16, seed=0)
        out = model(_chain(6))
        assert out.shape == (16,)

    def test_deterministic(self):
        a = BinaryTreeLSTM(49, 8, 16, seed=3)
        b = BinaryTreeLSTM(49, 8, 16, seed=3)
        tree = _chain(7, label=5)
        np.testing.assert_array_equal(a(tree).data, b(tree).data)

    def test_label_sensitivity(self):
        model = BinaryTreeLSTM(49, 8, 16, seed=0)
        assert not np.allclose(model(_chain(4, 1)).data, model(_chain(4, 2)).data)

    def test_structure_sensitivity(self):
        model = BinaryTreeLSTM(49, 8, 16, seed=0)
        left_heavy = BinaryTreeNode(1, left=BinaryTreeNode(2, left=BinaryTreeNode(3)))
        right_heavy = BinaryTreeNode(1, right=BinaryTreeNode(2, right=BinaryTreeNode(3)))
        assert not np.allclose(model(left_heavy).data, model(right_heavy).data)

    def test_child_order_matters(self):
        """Binary Tree-LSTM (unlike Child-Sum) distinguishes child order --
        the reason the paper picks it (§II-C)."""
        model = BinaryTreeLSTM(49, 8, 16, seed=0)
        ab = BinaryTreeNode(1, BinaryTreeNode(2), BinaryTreeNode(3))
        ba = BinaryTreeNode(1, BinaryTreeNode(3), BinaryTreeNode(2))
        assert not np.allclose(model(ab).data, model(ba).data)

    def test_leaf_init_modes_differ(self):
        zero = BinaryTreeLSTM(49, 8, 16, seed=0, leaf_init="zero")
        one = BinaryTreeLSTM(49, 8, 16, seed=0, leaf_init="one")
        tree = _chain(4)
        assert not np.allclose(zero(tree).data, one(tree).data)

    def test_invalid_leaf_init(self):
        with pytest.raises(ValueError):
            BinaryTreeLSTM(49, 8, 16, leaf_init="two")

    def test_deep_tree_no_recursion_error(self):
        model = BinaryTreeLSTM(49, 4, 8, seed=0)
        out = model(_chain(3000))
        assert np.all(np.isfinite(out.data))

    def test_fused_reference_forward_equal(self):
        fused = BinaryTreeLSTM(49, 8, 16, seed=5, fused=True)
        reference = BinaryTreeLSTM(49, 8, 16, seed=5, fused=False)
        tree = _chain(9, label=7)
        np.testing.assert_allclose(fused(tree).data, reference(tree).data)

    @settings(max_examples=15, deadline=None)
    @given(binary_trees())
    def test_fused_reference_gradients_equal(self, tree):
        """Property: the hand-derived fused backward matches the composed
        autograd reference on arbitrary trees."""
        fused = BinaryTreeLSTM(49, 6, 10, seed=9, fused=True)
        reference = BinaryTreeLSTM(49, 6, 10, seed=9, fused=False)
        for model in (fused, reference):
            model.zero_grad()
            model(tree).sum().backward()
        ref_grads = dict(reference.named_parameters())
        for name, parameter in fused.named_parameters():
            np.testing.assert_allclose(
                parameter.grad, ref_grads[name].grad, rtol=1e-9, atol=1e-12,
                err_msg=name,
            )

    @settings(max_examples=25, deadline=None)
    @given(
        embedding_dim=st.integers(min_value=1, max_value=12),
        hidden_dim=st.integers(min_value=1, max_value=12),
        leaf_init=st.sampled_from(["zero", "one"]),
        leaf_children=st.tuples(st.booleans(), st.booleans()),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    def test_cell_node_is_its_one_row_case(
        self, embedding_dim, hidden_dim, leaf_init, leaf_children, seed
    ):
        """Property: the fused cell gives the same bits on one node's
        vectors as on that node as a ``(1, .)`` matrix -- h, c, the five
        input gradients and all 18 parameter gradients."""
        model = BinaryTreeLSTM(49, embedding_dim, hidden_dim,
                               leaf_init=leaf_init, seed=seed)
        rng = np.random.default_rng(seed)
        leaf = model._leaf_state().data
        e = model.embedding.weight.data[rng.integers(49)]
        h_l, h_r, c_l, c_r = rng.normal(size=(4, hidden_dim))
        if leaf_children[0]:
            h_l, c_l = leaf, leaf
        if leaf_children[1]:
            h_r, c_r = leaf, leaf
        upstream = rng.normal(size=(2, hidden_dim))

        def run(rows):
            model.zero_grad()
            inputs = [
                Tensor(x.reshape(1, -1) if rows else x, requires_grad=True)
                for x in (e, h_l, h_r, c_l, c_r)
            ]
            out = model.cell(*inputs)
            (out * Tensor(upstream.reshape(out.shape))).sum().backward()
            grads = [t.grad for t in inputs] + [
                p.grad for name, p in model.named_parameters()
                if not name.startswith("embedding.")
            ]
            return [out.data] + grads

        node, row = run(rows=False), run(rows=True)
        assert node[0].shape == (2, hidden_dim)
        assert row[0].shape == (2, 1, hidden_dim)
        assert len(node) == 1 + 5 + 18
        for a, b in zip(node, row):
            assert a.tobytes() == b.tobytes()

    def test_parameter_count(self):
        d, h, labels = 8, 16, 49
        model = BinaryTreeLSTM(labels, d, h, seed=0)
        expected = (
            labels * d          # embedding
            + 4 * d * h         # W_f, W_i, W_o, W_u
            + 10 * h * h        # U matrices (4 forget + 2 each for i/o/u)
            + 4 * h             # biases
        )
        assert model.n_parameters() == expected

    def test_gradients_reach_embedding(self):
        model = BinaryTreeLSTM(49, 8, 16, seed=0)
        model(_chain(4, label=2)).sum().backward()
        assert model.embedding.weight.grad is not None
        assert np.any(model.embedding.weight.grad[2] != 0)


class TestStructure2Vec:
    def _graph(self, n=4, seed=0):
        rng = RNG(seed)
        features = np.abs(rng.normal(size=(n, 8)))
        adjacency = np.zeros((n, n))
        for i in range(n - 1):
            adjacency[i, i + 1] = 1
        return features, adjacency

    def test_embedding_shape(self):
        model = Structure2Vec(8, 16, iterations=3, seed=0)
        features, adjacency = self._graph()
        assert model(features, adjacency).shape == (16,)

    def test_deterministic(self):
        features, adjacency = self._graph()
        a = Structure2Vec(8, 16, seed=1)
        b = Structure2Vec(8, 16, seed=1)
        np.testing.assert_array_equal(
            a(features, adjacency).data, b(features, adjacency).data
        )

    def test_feature_dim_checked(self):
        model = Structure2Vec(8, 16, seed=0)
        with pytest.raises(ValueError):
            model(np.ones((3, 5)), np.zeros((3, 3)))

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            Structure2Vec(8, 16, iterations=0)

    def test_structure_sensitivity(self):
        model = Structure2Vec(8, 16, seed=0)
        features, chain_adj = self._graph()
        star_adj = np.zeros_like(chain_adj)
        star_adj[0, 1:] = 1
        chain_out = model(features, chain_adj).data
        star_out = model(features, star_adj).data
        assert not np.allclose(chain_out, star_out)

    def test_gradients_flow(self):
        model = Structure2Vec(8, 16, seed=0)
        features, adjacency = self._graph()
        model(features, adjacency).sum().backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_cosine_similarity_bounds(self):
        a = Tensor(np.array([1.0, 0.0]))
        b = Tensor(np.array([1.0, 0.0]))
        c = Tensor(np.array([-1.0, 0.0]))
        assert float(cosine_similarity(a, b).data) == pytest.approx(1.0)
        assert float(cosine_similarity(a, c).data) == pytest.approx(-1.0)
