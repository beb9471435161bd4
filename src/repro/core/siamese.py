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

#: Elements per scoring tile (see :func:`_tiles`): enough that per-tile
#: BLAS dispatch is noise, few enough that a handful of candidate rows
#: is not padded to a block and that BLAS never threads a tile (so the
#: bits do not depend on the thread count either).
TILE_ELEMENTS = 4096
#: Bytes of ``|Q - V|`` one pass works on: resident in a 2 MB L2 cache,
#: where its subtract, abs and product sweeps then stay.
_PASS_BYTES = 1_600_000


def _tile_rows(h: int) -> int:
    """Corpus rows per tile: set by the model's width, never by a batch."""
    return max(16, TILE_ELEMENTS // h // 16 * 16)


def _tiles(block: np.ndarray, tail: np.ndarray):
    """``(first_tile, tiles)`` covering a C-contiguous ``(b, h)`` block
    with ``(k, t, h)`` stacks of fixed-shape tiles: the whole tiles as a
    view, then the remainder copied into ``tail`` (``(1, t, h)``, zero
    past the rows it has held; the caller drops those outputs).

    BLAS picks kernel and accumulation order by the shape it is called
    with, so ``(V @ w)[rows]`` and ``V[rows] @ w`` differ in the last
    bit.  ``np.matmul`` over a stack multiplies one ``(t, h)`` matrix at
    a time: a row's products depend on no other row or query.
    """
    t = tail.shape[1]
    whole, rest = divmod(block.shape[0], t)
    if whole:
        yield 0, block[:whole * t].reshape(whole, t, block.shape[1])
    if rest:
        tail[0, :rest] = block[whole * t:]
        yield whole, tail


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
        head collapses to stacked matrix products against ``W``, so Q
        queries cost one pass over the corpus instead of Q.  Arithmetic
        runs in the corpus dtype (queries are cast), which is what lets
        a float32 memory-mapped corpus be scored without a float64
        up-conversion of every block.

        A score is a pure function of (query, row, weights) -- the same
        bits alone, in any subset, beside any other queries (see
        :func:`_tiles`) -- so the index can prune, pool and batch
        queries without changing an answer.
        """
        vectors = np.ascontiguousarray(vectors)
        queries = np.asarray(query, dtype=vectors.dtype)
        single = queries.ndim == 1
        if single:
            queries = queries[None, :]
        q, (n, h) = queries.shape[0], vectors.shape
        w = self.w.data.astype(vectors.dtype, copy=False)
        if not self.literal_sigmoid:
            # softmax over two raw logits is exactly sigmoid(l1 - l0), so
            # the head needs only the *margin* weights: one logit column
            w = w[:, 1:] - w[:, :1]
        # the product term does: (v ⊙ u) · w_c == v · (u ⊙ w_c)
        w_prod = queries[:, None, :, None] * w[h:]  # (q, 1, h, c)
        t = _tile_rows(h)
        scores = np.empty((q, n), dtype=vectors.dtype)
        # corpus rows per pass sized so the (q, rows, h) |Q - V| scratch
        # stays cache-resident; the whole-corpus broadcast thrashes for
        # q >> 1.  One scratch per call, allocated at twice a pass however
        # few rows the call brings (untouched pages cost nothing): the
        # allocator's mmap and trim thresholds follow the largest block
        # freed, and this one must outweigh what else a sweep frees (ring
        # rows, gathered block, scores) or each call trims and re-faults
        tiles_per_pass = max(1, _PASS_BYTES // (q * t * h * vectors.itemsize))
        scratch = np.empty((2, q, tiles_per_pass, t, h), vectors.dtype)[0]
        flat = scratch.reshape(q, tiles_per_pass * t, h)
        tail = np.zeros((1, t, h), dtype=vectors.dtype)
        for start in range(0, n, tiles_per_pass * t):
            block = vectors[start:start + tiles_per_pass * t]
            b = block.shape[0]
            k = -(-b // t)
            diff = flat[:, :b]
            np.subtract(queries[:, None, :], block, out=diff)
            np.abs(diff, out=diff)
            # the rows padding the last tile are multiplied too, and heap
            # garbage read as floats is mostly denormals (a trap apiece)
            flat[:, b:k * t] = 0
            logits = scratch[:, :k] @ w[:h]  # (q, k, t, c)
            for first, tiles in _tiles(block, tail):
                logits[:, first:first + tiles.shape[0]] += tiles @ w_prod
            logits = logits.reshape(q, k * t, -1)[:, :b]
            if self.literal_sigmoid:
                logits = 1.0 / (1.0 + np.exp(-logits))
                exps = np.exp(logits - logits.max(axis=2, keepdims=True))
                scores[:, start:start + b] = exps[:, :, 1] / exps.sum(axis=2)
            else:
                scores[:, start:start + b] = stable_sigmoid(logits[:, :, 0])
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
        ``(n, h)`` vectors, in the classifier's fixed-shape tiles
        (:func:`_tiles`): a pure function of (query, row) here too."""
        vectors = np.ascontiguousarray(vectors)
        queries = np.atleast_2d(np.asarray(query, dtype=vectors.dtype))
        q, (n, h) = queries.shape[0], vectors.shape
        t = _tile_rows(h)
        dots = np.empty((q, -(-n // t), t, 1), dtype=vectors.dtype)
        tail = np.zeros((1, t, h), dtype=vectors.dtype)
        columns = queries[:, None, :, None]
        for first, tiles in _tiles(vectors, tail):
            dots[:, first:first + len(tiles)] = tiles @ columns
        norms = np.outer(
            np.linalg.norm(queries, axis=1), np.linalg.norm(vectors, axis=1)
        )
        norms = np.where(norms == 0.0, 1e-12, norms)
        # clipped: a cosine can round above 1, and M <= 1 is the bound
        # the index's ring sweep stops on (repro.index.ann)
        cosine = dots.reshape(q, -1)[:, :n] / norms
        scores = np.minimum((cosine + 1.0) * 0.5, 1.0)
        return scores[0] if np.ndim(query) == 1 else scores
