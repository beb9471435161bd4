"""Siamese similarity heads over Tree-LSTM encodings (paper §III-B, eq. 8).

Two heads are provided:

* :class:`SiameseClassifier` -- the paper's design:
  ``softmax(σ(cat(|v1−v2|, v1⊙v2) · W))`` with ``W ∈ R^{2h×2}``, trained as
  binary classification with BCE against one-hot labels;
* :class:`SiameseRegression` -- the cosine-distance ablation from Figure 9.

Both share *one* Tree-LSTM encoder instance (identical weights on both
branches -- the defining property of a Siamese network).
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter, glorot
from repro.nn.tensor import Tensor, concat, no_grad, stable_sigmoid
from repro.nn.treelstm import BinaryTreeLSTM, BinaryTreeNode
from repro.utils.rng import RNG


class SiameseClassifier(Module):
    """The paper's classification-style Siamese network M(T1, T2).

    Note on equation (8): read literally, the paper applies a sigmoid
    *inside* the softmax -- ``softmax(σ(cat(...)·W))`` -- which bounds the
    similarity output to at most ``e/(1+e) ≈ 0.731``.  That contradicts the
    paper's own reported behaviour (a decision threshold of 0.84 in §V and
    candidate scores of exactly 1).  The default here therefore applies the
    softmax to the raw logits, matching the reported score range; pass
    ``literal_sigmoid=True`` to get the literal formula.
    """

    def __init__(self, encoder: BinaryTreeLSTM, seed: int = 0,
                 literal_sigmoid: bool = False):
        self.encoder = encoder
        self.literal_sigmoid = literal_sigmoid
        rng = RNG(seed)
        self.w = Parameter(
            glorot(rng.child("siamese_w"), (2 * encoder.hidden_dim, 2))
        )

    def forward(self, t1: BinaryTreeNode, t2: BinaryTreeNode) -> Tensor:
        """Output ``[dissimilarity, similarity]`` (a 2-probability vector)."""
        v1 = self.encoder(t1)
        v2 = self.encoder(t2)
        return self.head(v1, v2)

    def head(self, v1: Tensor, v2: Tensor) -> Tensor:
        """Equation (8) applied to two encoding vectors."""
        features = concat([(v1 - v2).abs(), v1 * v2])
        logits = features @ self.w
        if self.literal_sigmoid:
            logits = logits.sigmoid()
        return logits.softmax()

    def similarity(self, t1: BinaryTreeNode, t2: BinaryTreeNode) -> float:
        """Inference: the similarity component of the output."""
        with no_grad():
            return float(self.forward(t1, t2).data[1])

    def similarity_from_vectors(self, v1: np.ndarray, v2: np.ndarray) -> float:
        """The fast online path: equation (8) in raw numpy.

        This is what makes per-pair similarity nanosecond-to-microsecond
        scale in the paper's Figure 10(c): once functions are encoded, one
        comparison is two tiny vector ops and a 2x(2h) matmul.
        """
        features = np.concatenate([np.abs(v1 - v2), v1 * v2])
        logits = features @ self.w.data
        if self.literal_sigmoid:
            logits = 1.0 / (1.0 + np.exp(-logits))
        shifted = logits - logits.max()
        exps = np.exp(shifted)
        return float(exps[1] / exps.sum())

    def similarity_from_matrix(
        self, query: np.ndarray, vectors: np.ndarray
    ) -> np.ndarray:
        """Equation (8) for one or many queries against a corpus at once.

        ``vectors`` is an ``(n, h)`` matrix of cached encodings; ``query``
        is one vector ``(h,)`` (returns ``(n,)`` scores) or a ``(q, h)``
        query matrix (returns ``(q, n)`` scores).  The element-wise
        feature terms broadcast across all query/corpus pairs and the
        head collapses to batched GEMMs against ``W``, so Q queries cost
        one pass over the corpus instead of Q.  Arithmetic runs in the
        corpus dtype (queries are cast), which is what lets a float32
        memory-mapped corpus be scored without a float64 up-conversion
        of every block.
        """
        queries = np.asarray(query, dtype=vectors.dtype)
        single = queries.ndim == 1
        if single:
            queries = queries[None, :]
        q, n = queries.shape[0], vectors.shape[0]
        h = vectors.shape[1]
        w = self.w.data.astype(vectors.dtype, copy=False)
        scores = np.empty((q, n), dtype=vectors.dtype)
        # corpus chunks sized so the (q, b, h) |V - U| scratch tensor
        # stays cache-resident (~a few MB); the whole-corpus broadcast
        # thrashes for q >> 1 and tiny chunks waste dispatch overhead
        chunk = max(64, 800_000 // max(1, q * h))
        # one scratch per call, not two fresh temporaries per chunk: at
        # a few MB each they sit above the allocator's mmap threshold,
        # so every chunk mapped, zero-faulted and unmapped them
        scratch = np.empty(q * min(chunk, n) * h, dtype=vectors.dtype)

        def abs_diff(block: np.ndarray) -> np.ndarray:
            """``|queries - block|`` as a contiguous (q, b, h) view."""
            b = block.shape[0]
            diff = scratch[:q * b * h].reshape(q, b, h)
            np.subtract(queries[:, None, :], block[None, :, :], out=diff)
            return np.abs(diff, out=diff)

        if self.literal_sigmoid:
            for start in range(0, n, chunk):
                block = vectors[start:start + chunk]
                logits = abs_diff(block) @ w[:h]  # (q, b, 2)
                # the product term does: (v ⊙ u) · w_c == (v ⊙ w_c) · u
                for c in range(w.shape[1]):
                    logits[:, :, c] += (queries * w[h:, c]) @ block.T
                logits = 1.0 / (1.0 + np.exp(-logits))
                shifted = logits - logits.max(axis=2, keepdims=True)
                exps = np.exp(shifted)
                scores[:, start:start + chunk] = (
                    exps[:, :, 1] / exps.sum(axis=2)
                )
            return scores[0] if single else scores
        # softmax over two raw logits is exactly sigmoid(l1 - l0), so the
        # head needs only the *margin* weights -- one (q, b, h)
        # contraction and one GEMM per chunk instead of two of each
        w_abs = w[:h, 1] - w[:h, 0]
        w_prod = (w[h:, 1] - w[h:, 0]) * queries  # (q, h), query-fused
        for start in range(0, n, chunk):
            block = vectors[start:start + chunk]
            margin = abs_diff(block) @ w_abs  # (q, b)
            margin += w_prod @ block.T
            scores[:, start:start + chunk] = stable_sigmoid(margin)
        return scores[0] if single else scores


class SiameseRegression(Module):
    """Cosine-distance Siamese head (the Figure 9 'Regression' ablation)."""

    def __init__(self, encoder: BinaryTreeLSTM):
        self.encoder = encoder

    def forward(self, t1: BinaryTreeNode, t2: BinaryTreeNode) -> Tensor:
        v1 = self.encoder(t1)
        v2 = self.encoder(t2)
        return self.head(v1, v2)

    def head(self, v1: Tensor, v2: Tensor) -> Tensor:
        """Cosine similarity rescaled to [0, 1]."""
        cosine = v1.dot(v2) / (v1.norm() * v2.norm())
        return (cosine + 1.0) * 0.5

    def similarity(self, t1: BinaryTreeNode, t2: BinaryTreeNode) -> float:
        with no_grad():
            return float(self.forward(t1, t2).data)

    def similarity_from_vectors(self, v1: np.ndarray, v2: np.ndarray) -> float:
        denom = (np.linalg.norm(v1) * np.linalg.norm(v2)) or 1e-12
        return float((v1 @ v2 / denom + 1.0) * 0.5)

    def similarity_from_matrix(
        self, query: np.ndarray, vectors: np.ndarray
    ) -> np.ndarray:
        """Batched cosine head: ``(h,)`` or ``(q, h)`` queries against
        ``(n, h)`` vectors -- one ``(q, h) @ (h, n)`` GEMM."""
        from repro.nn.graphnet import cosine_similarity_matrix

        query = np.asarray(query)
        scores = (cosine_similarity_matrix(query, vectors) + 1.0) * 0.5
        return scores[0] if query.ndim == 1 else scores
