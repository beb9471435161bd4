"""Top-k nearest-neighbour search over cached function encodings.

Backends share one interface (:class:`AnnIndex`): a backend proposes
candidate rows per query, and the shared scorers rank them by the true
(calibrated) model score.

* :class:`BruteForceIndex` -- exact: every row is a candidate; queries
  score the whole corpus with matrix-at-once passes through the Siamese
  head (:meth:`repro.core.model.Asteria.similarity_matrix`), block by
  block over the store's memory-mapped shards -- the corpus is never
  materialised as one array.  The reference the tiered index is tested
  against;
* :class:`~repro.index.quant.IvfPqIndex` -- approximate: IVF coarse
  probe + int8 quantized sweep restrict which rows reach the exact
  rerank (see :mod:`repro.index.quant`).

Backends answer single queries (:meth:`AnnIndex.top_k`) and query
batches (:meth:`AnnIndex.top_k_batch`); the batched form scores Q
queries per corpus block in one broadcasted Siamese GEMM, so a batch
reads the corpus once instead of Q times.  Selection uses
``np.argpartition`` (O(n) plus an O(k log k) sort of the winners) rather
than a full corpus sort, with ties broken by row exactly as the full
``np.lexsort`` would break them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.model import Asteria, FunctionEncoding
from repro.index.store import ShardedMatrix
from repro.obs.metrics import FRACTION_BUCKETS, SIZE_BUCKETS, MetricsRegistry
from repro.obs.trace import current_span

DEFAULT_OVERSAMPLE = 8
DEFAULT_MIN_CANDIDATES = 64

#: Rows per scoring pass: consecutive store shards are coalesced up to
#: this many rows so the Siamese GEMMs stay wide enough for BLAS to
#: thread, whatever the on-disk shard size is.  Bounds the transient
#: gather copy to ``SCORE_BLOCK_ROWS x dim`` elements.
SCORE_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class Neighbor:
    """One scored search result: a store row and its model score."""

    row: int
    score: float


def _as_view(vectors) -> ShardedMatrix:
    """Normalise ndarray input to the block view the scorers consume.

    A live store view is snapshotted: the index's row count, callee
    counts and (for the tiered backend) codes are all taken at
    construction, so the corpus the index scores must not grow
    underneath them when the store flushes new rows.
    """
    if isinstance(vectors, ShardedMatrix):
        return vectors.snapshot()
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
    view = ShardedMatrix(vectors.shape[1], vectors.dtype)
    if vectors.shape[0]:
        view.append_block(vectors)
    return view


def select_top_k(
    scores: np.ndarray, rows: np.ndarray, k: Optional[int]
) -> np.ndarray:
    """Positions of the top-``k`` scores, ranked exactly like
    ``np.lexsort((rows, -scores))[:k]`` (descending score, ascending row).

    Uses ``np.argpartition`` so the corpus is swept in O(n) instead of
    fully sorted; only the winners (plus any score ties straddling the
    cut) pay the O(m log m) ordering.  Ties at the boundary are resolved
    by row, bit-identically to the full-sort reference.
    """
    n = scores.shape[0]
    if k is None or k >= n:
        return np.lexsort((rows, -scores))[: n if k is None else k]
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    part = np.argpartition(-scores, k - 1)
    boundary = scores[part[k - 1]]
    # everything strictly above the k-th score is in; boundary-score ties
    # are settled by row order, exactly as the lexsort reference would
    contenders = np.flatnonzero(scores >= boundary)
    order = np.lexsort((rows[contenders], -scores[contenders]))[:k]
    return contenders[order]


class AnnIndex:
    """Common interface: candidate generation + batched exact rerank."""

    #: default rerank oversampling when callers don't pass one; tiered
    #: backends override this per-instance (the ``ann_rerank`` knob)
    oversample: int = DEFAULT_OVERSAMPLE

    def __init__(
        self,
        model: Asteria,
        vectors,
        callee_counts: Optional[np.ndarray] = None,
        calibrate: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ):
        if calibrate and callee_counts is None:
            raise ValueError("calibrate=True requires callee_counts")
        self.model = model
        self.vectors = _as_view(vectors)
        self.callee_counts = (
            None
            if callee_counts is None
            else np.asarray(callee_counts, dtype=np.int64)
        )
        self.calibrate = calibrate
        self.registry = registry

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    # -- candidate generation (backend-specific) ---------------------------

    def candidate_rows(
        self, query_vector: np.ndarray, n: Optional[int]
    ) -> Optional[np.ndarray]:
        """Rows worth scoring for this query (ascending row order).

        ``None`` means "the whole corpus" and lets the scorers sweep the
        store's blocks without a fancy-indexing copy.
        """
        raise NotImplementedError

    def candidate_rows_batch(
        self,
        query_matrix: np.ndarray,
        n: Optional[int],
        queries: Optional[Sequence[FunctionEncoding]] = None,
    ) -> List[Optional[np.ndarray]]:
        """Per-query candidate rows for a ``(q, h)`` query matrix.

        ``queries`` (the full encodings behind the matrix) is optional
        context for backends whose candidate ranking is score-aware --
        the quantized tier calibrates its approximate sweep with the
        query callee counts.  Geometry-only backends ignore it.
        """
        return [
            self.candidate_rows(query_matrix[i], n)
            for i in range(query_matrix.shape[0])
        ]

    # -- batched scoring (shared) ------------------------------------------

    def score_matrix(
        self,
        queries: Sequence[FunctionEncoding],
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Exact calibrated Siamese scores as a ``(q, n_rows)`` matrix.

        ``rows=None`` sweeps the whole corpus one shard block at a time
        -- every block is scored against *all* queries in one broadcasted
        GEMM, so Q queries read each (possibly memory-mapped) block once.
        """
        if rows is not None:
            vectors = self.vectors.take(rows)
            counts = (
                None
                if self.callee_counts is None
                else self.callee_counts[rows]
            )
            return self.model.similarity_matrix(
                queries, vectors, counts, calibrate=self.calibrate
            )
        out = np.empty((len(queries), len(self)))
        for start, block in self._scoring_blocks():
            counts = (
                None
                if self.callee_counts is None
                else self.callee_counts[start:start + block.shape[0]]
            )
            out[:, start:start + block.shape[0]] = (
                self.model.similarity_matrix(
                    queries, block, counts, calibrate=self.calibrate
                )
            )
        return out

    def _sweep_top_k(
        self,
        queries: Sequence[FunctionEncoding],
        k: int,
        threshold: Optional[float],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Whole-corpus candidates pruned block-by-block.

        Each block's ``(q, b)`` score matrix is reduced to at most ``k``
        rows per query before the next block is read; every global
        top-k row is by construction in its own block's top-k, so the
        final selection over the accumulated candidates is exact.
        """
        rows_acc: List[List[np.ndarray]] = [[] for _ in queries]
        scores_acc: List[List[np.ndarray]] = [[] for _ in queries]
        for start, block in self._scoring_blocks():
            counts = (
                None
                if self.callee_counts is None
                else self.callee_counts[start:start + block.shape[0]]
            )
            scores = self.model.similarity_matrix(
                queries, block, counts, calibrate=self.calibrate
            )
            block_rows = np.arange(
                start, start + block.shape[0], dtype=np.int64
            )
            for i in range(len(queries)):
                q_rows, q_scores = block_rows, scores[i]
                if threshold is not None:
                    keep = q_scores >= threshold
                    q_rows, q_scores = q_rows[keep], q_scores[keep]
                top = select_top_k(q_scores, q_rows, k)
                rows_acc[i].append(q_rows[top])
                scores_acc[i].append(q_scores[top])
        return [
            (
                np.concatenate(rows_acc[i])
                if rows_acc[i] else np.zeros(0, dtype=np.int64),
                np.concatenate(scores_acc[i])
                if scores_acc[i] else np.zeros(0),
            )
            for i in range(len(queries))
        ]

    def _scoring_blocks(self):
        """Corpus blocks for scoring: small adjacent shards coalesced.

        Stores often shard at a few thousand rows; scoring per shard
        would keep every Siamese GEMM below the width where BLAS
        threads.  Gathering consecutive shards up to
        :data:`SCORE_BLOCK_ROWS` costs one bounded memcpy and keeps the
        sweep streaming (never the whole corpus at once).
        """
        pending: List[np.ndarray] = []
        pending_rows = 0
        pending_start = 0
        for start, block in self.vectors.iter_blocks():
            if pending and pending_rows + block.shape[0] > SCORE_BLOCK_ROWS:
                yield pending_start, (
                    pending[0] if len(pending) == 1
                    else np.concatenate(pending)
                )
                pending, pending_rows = [], 0
            if not pending:
                pending_start = start
            pending.append(block)
            pending_rows += block.shape[0]
        if pending:
            yield pending_start, (
                pending[0] if len(pending) == 1
                else np.concatenate(pending)
            )

    def score_rows(
        self, query: FunctionEncoding, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Single-query form of :meth:`score_matrix` (a ``(n,)`` vector)."""
        return self.score_matrix([query], rows)[0]

    def top_k(
        self,
        query: FunctionEncoding,
        k: Optional[int] = 10,
        threshold: Optional[float] = None,
        oversample: Optional[int] = None,
    ) -> List[Neighbor]:
        """Top-``k`` neighbours by exact model score (highest first).

        ``k=None`` returns every candidate; ``threshold`` drops results
        scoring below it.  Ties are broken by row for determinism.
        """
        return self.top_k_batch(
            [query], k=k, threshold=threshold, oversample=oversample
        )[0]

    def top_k_batch(
        self,
        queries: Sequence[FunctionEncoding],
        k: Optional[int] = 10,
        threshold: Optional[float] = None,
        oversample: Optional[int] = None,
    ) -> List[List[Neighbor]]:
        """Top-``k`` neighbours for Q queries in one corpus pass.

        Selects the same candidates as mapping :meth:`top_k`: all
        queries share each corpus block read and each Siamese GEMM, and
        each query then picks its own top-k with ``argpartition``.
        Scores agree with the single-query path to float rounding (the
        GEMM accumulation order depends on batch width), so rows whose
        scores differ only in the last bits may order differently
        across the two paths.
        """
        if not len(queries):
            return []
        if len(self) == 0:
            return [[] for _ in queries]
        if oversample is None:
            oversample = self.oversample
        wanted = None
        if k is not None:
            wanted = max(k * oversample, DEFAULT_MIN_CANDIDATES)
        query_matrix = np.stack(
            [np.asarray(q.vector) for q in queries]
        )
        per_query = self.candidate_rows_batch(query_matrix, wanted, queries)
        sweep_started = time.perf_counter()
        all_rows: Optional[np.ndarray] = None  # shared, never mutated

        def whole_corpus() -> np.ndarray:
            nonlocal all_rows
            if all_rows is None:
                all_rows = np.arange(len(self))
            return all_rows

        if all(rows is None for rows in per_query):
            if k is None:
                # every score is part of the answer: the (q, n) matrix
                # is the output, so materialising it is unavoidable
                scored = [
                    (whole_corpus(), row_scores)
                    for row_scores in self.score_matrix(queries)
                ]
            else:
                # streaming sweep: per-block (q, b) scoring + per-block
                # top-k, so batch memory stays O(q * block), not
                # O(q * corpus) -- the property that lets a CVE-library
                # batch run against a multi-million-row mmap store
                scored = self._sweep_top_k(queries, k, threshold)
        else:
            gathered = [
                rows if rows is not None else whole_corpus()
                for rows in per_query
            ]
            total = sum(rows.size for rows in gathered)
            union = np.unique(np.concatenate(gathered)) if total else None
            if union is None:
                scored = [(rows, np.zeros(0)) for rows in gathered]
            elif len(queries) * union.size <= 2 * total:
                # candidate sets overlap heavily (clustered / duplicate
                # queries): score the union once for all queries
                scores = self.score_matrix(queries, union)
                scored = [
                    (rows, scores[i, np.searchsorted(union, rows)])
                    for i, rows in enumerate(gathered)
                ]
            else:
                # mostly-disjoint candidates: a (q, union) matrix would
                # score far more pairs than were ever candidates -- keep
                # the rerank per query (generation was still shared)
                scored = [
                    (rows, self.score_matrix([queries[i]], rows)[0])
                    if rows.size else (rows, np.zeros(0))
                    for i, rows in enumerate(gathered)
                ]
        self._observe_batch(per_query, time.perf_counter() - sweep_started)
        results: List[List[Neighbor]] = []
        for q_rows, q_scores in scored:
            if q_rows.size == 0:
                results.append([])
                continue
            if threshold is not None:
                keep = q_scores >= threshold
                q_rows, q_scores = q_rows[keep], q_scores[keep]
            top = select_top_k(q_scores, q_rows, k)
            results.append(
                [
                    Neighbor(row=int(q_rows[j]), score=float(q_scores[j]))
                    for j in top
                ]
            )
        return results

    def _observe_batch(
        self, per_query: List[Optional[np.ndarray]], sweep_s: float
    ) -> None:
        """Record candidate-set sizes, rerank fraction and sweep time.

        ``per_query`` entries of ``None`` mean the whole corpus was
        swept (the exact backend), i.e. rerank fraction 1.0.
        """
        n = len(self)
        sizes = [n if rows is None else int(rows.size) for rows in per_query]
        span = current_span()
        if span is not None:
            span.set(
                corpus_rows=n,
                candidates=sizes if len(sizes) > 1 else sizes[0],
                sweep_ms=round(sweep_s * 1000.0, 3),
            )
        if self.registry is None:
            return
        candidates = self.registry.histogram(
            "repro_ann_candidates",
            "Candidate rows scored per query", buckets=SIZE_BUCKETS,
        )
        fraction = self.registry.histogram(
            "repro_ann_rerank_fraction",
            "Fraction of the corpus exact-reranked per query",
            buckets=FRACTION_BUCKETS,
        )
        for size in sizes:
            candidates.observe(size)
            if n:
                fraction.observe(size / n)
        self.registry.histogram(
            "repro_ann_sweep_seconds",
            "Blockwise corpus sweep + rerank wall time per batch",
        ).observe(sweep_s)
        self.registry.counter(
            "repro_ann_queries_total", "Queries answered by the index"
        ).inc(len(per_query))


class BruteForceIndex(AnnIndex):
    """Exact backend: every row is a candidate (scored copy-free)."""

    def candidate_rows(
        self, query_vector: np.ndarray, n: Optional[int]
    ) -> Optional[np.ndarray]:
        return None


def _backends() -> Dict[str, Type[AnnIndex]]:
    """Every backend :func:`make_index` accepts, by name."""
    # imported here: quant.py subclasses AnnIndex from this module
    from repro.index.quant import IvfPqIndex

    return {"exact": BruteForceIndex, "ivf-pq": IvfPqIndex}


def known_backends() -> List[str]:
    """Canonical backend names accepted by :func:`make_index`."""
    return sorted(_backends())


def backend_is_stateful(backend: str) -> bool:
    """True when ``backend`` persists construction state (quantization)
    in the store through ``state_dict``."""
    return hasattr(_backends().get(backend), "state_dict")


def make_index(
    backend: str,
    model: Asteria,
    vectors,
    callee_counts: Optional[np.ndarray] = None,
    **options,
) -> AnnIndex:
    """Instantiate a backend by name (``exact`` or ``ivf-pq``).

    Unknown names raise the typed bad-request error (CLI exit 6,
    HTTP 400) so a typo'd ``--backend`` surfaces as a client error, not
    an internal KeyError.
    """
    cls = _backends().get(backend)
    if cls is None:
        # lazy: repro.api pulls in this module at package-import time
        from repro.api.errors import BadRequestError

        raise BadRequestError(
            f"unknown backend {backend!r} (choose from "
            f"{', '.join(known_backends())})"
        )
    return cls(model, vectors, callee_counts, **options)
