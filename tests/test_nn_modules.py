"""Tests for Module/layers/optimisers/losses/serialisation."""

import numpy as np
import pytest

from repro.nn.layers import Embedding
from repro.nn.loss import bce_loss, cosine_embedding_loss, mse_loss
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, AdaGrad, Adam
from repro.nn.serialize import load_state, save_state
from repro.nn.tensor import Tensor
from repro.utils.rng import RNG


class _Tiny(Module):
    def __init__(self):
        self.emb = Embedding(3, 2, RNG(0))
        self.extra = Parameter(np.zeros(2))
        self.stack = [Embedding(2, 2, RNG(1))]

    def forward(self, index):
        return self.emb(index) + self.extra


class TestModule:
    def test_parameter_discovery(self):
        model = _Tiny()
        names = {name for name, _p in model.named_parameters()}
        assert names == {"emb.weight", "extra", "stack.0.weight"}

    def test_n_parameters(self):
        model = _Tiny()
        assert model.n_parameters() == 3 * 2 + 2 + 2 * 2

    def test_zero_grad(self):
        model = _Tiny()
        out = model(1).sum()
        out.backward()
        assert model.emb.weight.grad is not None
        model.zero_grad()
        assert model.emb.weight.grad is None

    def test_state_dict_roundtrip(self):
        a, b = _Tiny(), _Tiny()
        b.emb.weight.data += 1.0
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(b.emb.weight.data, a.emb.weight.data)

    def test_state_dict_mismatch_rejected(self):
        model = _Tiny()
        state = model.state_dict()
        state.pop("extra")
        with pytest.raises(ValueError):
            model.load_state_dict(state)
        bad = model.state_dict()
        bad["extra"] = np.zeros(5)
        with pytest.raises(ValueError):
            model.load_state_dict(bad)


class TestLayers:
    def test_embedding_lookup(self):
        emb = Embedding(10, 4, RNG(0))
        row = emb(3)
        np.testing.assert_array_equal(row.data, emb.weight.data[3])

    def test_embedding_bounds(self):
        emb = Embedding(10, 4, RNG(0))
        with pytest.raises(IndexError):
            emb(10)
        with pytest.raises(IndexError):
            emb(-1)

    def test_embedding_array_lookup_sums_repeated_ids(self):
        emb = Embedding(5, 3, RNG(0))
        ids = np.array([2, 0, 2, 4, 2])
        rows = emb(ids)
        np.testing.assert_array_equal(rows.data, emb.weight.data[ids])
        upstream = np.arange(15.0).reshape(5, 3)
        (rows * Tensor(upstream)).sum().backward()
        expected = np.zeros((5, 3))
        expected[2] = upstream[0] + upstream[2] + upstream[4]
        expected[0] = upstream[1]
        expected[4] = upstream[3]
        np.testing.assert_array_equal(emb.weight.grad, expected)
        with pytest.raises(IndexError, match="index 5 out of range"):
            emb(np.array([1, 5, -1]))

    def test_embedding_grad_only_touched_row(self):
        emb = Embedding(5, 3, RNG(0))
        emb(2).sum().backward()
        grad = emb.weight.grad
        assert np.all(grad[2] == 1.0)
        assert np.all(grad[[0, 1, 3, 4]] == 0.0)


def _quadratic_steps(optimizer_cls, steps=80, **kwargs):
    p = Parameter(np.array([5.0, -3.0]))
    optimizer = optimizer_cls([p], **kwargs)
    for _ in range(steps):
        optimizer.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        optimizer.step()
    return float((p.data ** 2).sum())


class TestOptimizers:
    @pytest.mark.parametrize("cls,kwargs", [
        (SGD, {"lr": 0.1}),
        (SGD, {"lr": 0.05, "momentum": 0.9}),
        (AdaGrad, {"lr": 0.8}),
        (Adam, {"lr": 0.3}),
    ])
    def test_minimises_quadratic(self, cls, kwargs):
        assert _quadratic_steps(cls, **kwargs) < 1e-2

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            SGD([])

    def test_step_skips_gradless(self):
        p = Parameter(np.ones(2))
        SGD([p], lr=0.1).step()  # no grad -> no change, no crash
        np.testing.assert_array_equal(p.data, [1.0, 1.0])


class TestLosses:
    def test_bce_perfect_prediction_near_zero(self):
        loss = bce_loss(Tensor([0.0001, 0.9999]), np.array([0.0, 1.0]))
        assert float(loss.data) < 0.001

    def test_bce_wrong_prediction_large(self):
        loss = bce_loss(Tensor([0.999, 0.001]), np.array([0.0, 1.0]))
        assert float(loss.data) > 3.0

    def test_bce_gradient_direction(self):
        p = Parameter(np.array([0.0, 0.0]))
        out = p.sigmoid()
        loss = bce_loss(out, np.array([0.0, 1.0]))
        loss.backward()
        assert p.grad[0] > 0  # push first logit down
        assert p.grad[1] < 0  # push second logit up

    def test_mse(self):
        loss = mse_loss(Tensor([1.0, 2.0]), np.array([1.0, 4.0]))
        assert float(loss.data) == pytest.approx(2.0)

    def test_cosine_embedding_loss(self):
        sim = Tensor([0.8]).sum()
        assert float(cosine_embedding_loss(sim, 1).data) == pytest.approx(0.2)
        assert float(cosine_embedding_loss(sim, -1).data) == pytest.approx(0.8)
        neg = Tensor([-0.5]).sum()
        assert float(cosine_embedding_loss(neg, -1).data) == 0.0
        with pytest.raises(ValueError):
            cosine_embedding_loss(sim, 0)


class TestSerialize:
    def test_roundtrip(self, tmp_path):
        state = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1.0])}
        path = tmp_path / "ckpt.npz"
        save_state(path, state, meta={"dim": 16})
        loaded, meta = load_state(path)
        assert meta == {"dim": 16}
        np.testing.assert_array_equal(loaded["a"], state["a"])
        np.testing.assert_array_equal(loaded["b"], state["b"])

    def test_suffix_added(self, tmp_path):
        path = tmp_path / "model"
        save_state(path, {"x": np.ones(2)})
        loaded, _ = load_state(path)  # finds model.npz
        assert "x" in loaded

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_state(tmp_path / "f.npz", {"__meta__": np.ones(1)})
