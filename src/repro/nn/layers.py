"""The embedding layer."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import RNG


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    The stand-in for ``torch.nn.Embedding`` the paper uses to embed the
    Table-I node labels into 16-dimensional vectors.
    """

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: RNG):
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            rng.normal(0.0, 1.0, size=(num_embeddings, embedding_dim))
        )

    def forward(self, index) -> Tensor:
        """One id's ``(d,)`` row, or an id array's ``(n, d)`` rows."""
        ids = np.asarray(index)
        if ids.ndim == 0:  # one node per call: a plain comparison is cheapest
            bad = [] if 0 <= index < self.num_embeddings else [index]
        else:
            bad = ids[(ids < 0) | (ids >= self.num_embeddings)]
        if len(bad):
            raise IndexError(
                f"embedding index {bad[0]} out of range "
                f"[0, {self.num_embeddings})"
            )
        weight = self.weight

        def backward(grad):
            if weight.requires_grad:
                full = np.zeros_like(weight.data)
                np.add.at(full, ids, grad)
                weight._accumulate(full)

        return Tensor._op(weight.data[ids], (weight,), backward)
