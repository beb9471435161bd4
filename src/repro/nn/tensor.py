"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` and records the operations applied to
it; :meth:`Tensor.backward` walks the recorded graph in reverse topological
order accumulating gradients.  Broadcasting is supported (gradients are
summed back over broadcast dimensions).

The op set is exactly what the Asteria/Gemini models need: elementwise
arithmetic, matmul, sigmoid/tanh/exp/log, abs, sum/mean, concatenation,
softmax, and embedding-row lookup (in :mod:`repro.nn.layers`).
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

_GRAD_ENABLED = [True]


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic function.

    ``1/(1+exp(-x))`` overflows (with a RuntimeWarning) for large negative
    pre-activations; computing ``exp(-|x|)`` keeps the exponent non-positive
    so both branches of the sign split stay in ``(0, 1]``.
    """
    ex = np.exp(-np.abs(x))
    return np.where(np.asarray(x) >= 0, 1.0, ex) / (1.0 + ex)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading added dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """An array with an autograd tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")
    __array_priority__ = 100  # so ndarray + Tensor defers to Tensor

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and grad_enabled()
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None
        self.name = name

    # -- construction helpers -----------------------------------------------

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _op(data, parents: Sequence["Tensor"], backward) -> "Tensor":
        # Always construct a plain Tensor: results of ops on Parameters are
        # intermediate values, not trainable parameters themselves.
        requires = any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires, parents=tuple(parents),
                      backward=backward)

    # -- properties -----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._op(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data - other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.data.shape))

        return self._op(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return self._op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2),
                                 other.data.shape)
                )

        return self._op(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

    def __neg__(self) -> "Tensor":
        def backward(grad):
            if self.requires_grad:
                self._accumulate(-grad)

        return self._op(-self.data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1 and a.ndim == 2:
                    self._accumulate(np.outer(grad, b))
                elif a.ndim == 1 and b.ndim == 2:
                    self._accumulate(grad @ b.T)
                else:
                    self._accumulate(grad @ np.swapaxes(b, -1, -2))
            if other.requires_grad:
                if a.ndim == 1 and b.ndim == 2:
                    other._accumulate(np.outer(a, grad))
                elif b.ndim == 1 and a.ndim == 2:
                    other._accumulate(a.T @ grad)
                else:
                    other._accumulate(np.swapaxes(a, -1, -2) @ grad)

        return self._op(out_data, (self, other), backward)

    def pow(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._op(out_data, (self,), backward)

    # -- nonlinearities --------------------------------------------------------------

    def sigmoid(self) -> "Tensor":
        out_data = stable_sigmoid(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._op(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return self._op(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0))

        return self._op(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._op(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return self._op(out_data, (self,), backward)

    def softmax(self) -> "Tensor":
        """Numerically stable softmax over the last axis."""
        shifted = self.data - self.data.max(axis=-1, keepdims=True)
        exps = np.exp(shifted)
        out_data = exps / exps.sum(axis=-1, keepdims=True)

        def backward(grad):
            if self.requires_grad:
                dot = (grad * out_data).sum(axis=-1, keepdims=True)
                self._accumulate(out_data * (grad - dot))

        return self._op(out_data, (self,), backward)

    # -- reductions ---------------------------------------------------------------------

    def sum(self) -> "Tensor":
        out_data = self.data.sum()

        def backward(grad):
            if self.requires_grad:
                self._accumulate(np.broadcast_to(grad, self.data.shape).copy())

        return self._op(out_data, (self,), backward)

    def mean(self) -> "Tensor":
        out_data = self.data.mean()
        count = self.data.size

        def backward(grad):
            if self.requires_grad:
                self._accumulate(
                    np.broadcast_to(grad / count, self.data.shape).copy()
                )

        return self._op(out_data, (self,), backward)

    def dot(self, other: "Tensor") -> "Tensor":
        """Vector dot product (rank-1 tensors)."""
        return (self * other).sum()

    def norm(self, eps: float = 1e-12) -> "Tensor":
        """L2 norm of a vector (stabilised away from zero)."""
        return (self.dot(self) + eps).pow(0.5)

    # -- indexing (for softmax outputs etc.) ----------------------------------------------

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                full[index] = grad
                self._accumulate(full)

        return self._op(out_data, (self,), backward)

    # -- autograd ------------------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad

    def backward(self) -> None:
        """Backpropagate from this (scalar) tensor."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: List[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate rank-1 tensors into one vector."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors])

    def backward(grad):
        offset = 0
        for t in tensors:
            size = t.data.size
            if t.requires_grad:
                t._accumulate(grad[offset:offset + size])
            offset += size

    return Tensor._op(out_data, tuple(tensors), backward)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def ones(shape) -> Tensor:
    return Tensor(np.ones(shape))
