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
batches (:meth:`AnnIndex.top_k_batch`); a batch reads the corpus once
instead of Q times.  Both sweeps -- the exact one over the corpus
(:meth:`AnnIndex._sweep_top_k`) and the quantized one over the probed
lists -- score only the rows that can still win: rings of callee-count
distance from one enumeration (:meth:`AnnIndex._rings`), stopped on
the bound ``exp(-|dC|)`` by one rule (:class:`_Held`).  Selection uses
``np.argpartition`` rather than a full corpus sort, with ties broken by
row exactly as the full ``np.lexsort`` would break them.  A score is a
pure function of (query, row) -- the head multiplies fixed-shape tiles
-- so single, batched, pruned and pooled (exact backend, one worker per
shard range) queries return the same bits.  An index never changes
after construction, so any number of threads may sweep one at once.
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

#: Rows per scoring pass: consecutive store shards (or the rows a ring
#: takes from them) are coalesced up to this many rows so a pass through
#: the Siamese head is not mostly per-call overhead, whatever the
#: on-disk shard size is.  Bounds the transient gather copy to
#: ``SCORE_BLOCK_ROWS x dim`` elements.
SCORE_BLOCK_ROWS = 8192

#: ``exp(-d)`` is exactly 0.0 from this callee-count distance on, so all
#: farther rows share the sweep's last ring.
LAST_RING = 746


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


class _Held:
    """One query's best ``k`` (row, score) pairs of a ring sweep so far,
    and the rule that ends its sweep."""

    def __init__(self, k: Optional[int]):
        self.k = k
        self._rows = [np.zeros(0, dtype=np.int64)]
        self._scores = [np.zeros(0)]

    def add(self, rows: np.ndarray, scores: np.ndarray) -> None:
        """Hold a scored block's best ``k``; :meth:`merged` cuts across
        blocks."""
        if self.k is not None:
            top = select_top_k(scores, rows, self.k)
            rows, scores = rows[top], scores[top]
        self._rows.append(rows)
        self._scores.append(scores)

    def merged(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, scores)`` held: every pair added for ``k=None``,
        else the best ``k``, ranked (the k-th score is the last)."""
        if len(self._rows) > 1:
            rows = np.concatenate(self._rows)
            scores = np.concatenate(self._scores)
            if self.k is not None:
                top = select_top_k(scores, rows, self.k)
                rows, scores = rows[top], scores[top]
            self._rows, self._scores = [rows], [scores]
        return self._rows[0], self._scores[0]

    def settled(self, bound: float) -> bool:
        """Can no row scoring ``<= bound`` enter the best ``k``?  Strictly
        below: a tie with the k-th score wins on a lower row number."""
        k = self.k
        if k is None:
            return False
        held = self.merged()[1]
        return held.size >= k and (k <= 0 or bound < held[k - 1])


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

    def propose(
        self,
        queries: Sequence[FunctionEncoding],
        k: Optional[int],
        oversample: Optional[int] = None,
    ) -> List[Optional[np.ndarray]]:
        """The backend's candidate rows per query, at the depth a top-``k``
        answer reranks: ``max(k * oversample, DEFAULT_MIN_CANDIDATES)``
        rows (``k=None``: every row the backend would visit)."""
        if oversample is None:
            oversample = self.oversample
        wanted = None
        if k is not None:
            wanted = max(k * oversample, DEFAULT_MIN_CANDIDATES)
        query_matrix = np.stack([np.asarray(q.vector) for q in queries])
        return self.candidate_rows_batch(query_matrix, wanted, queries)

    # -- batched scoring (shared) ------------------------------------------

    def score_matrix(
        self,
        queries: Sequence[FunctionEncoding],
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Exact calibrated Siamese scores as a ``(q, n_rows)`` matrix.

        ``rows`` (strictly ascending, as candidate lists are; default:
        the whole corpus) are gathered and scored one scoring block at a
        time, each against *all* queries in one broadcasted pass, so Q
        queries read each (possibly memory-mapped) block once.
        """
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if (rows[1:] <= rows[:-1]).any():
                raise ValueError("rows must be strictly ascending")
        n_rows = len(self) if rows is None else rows.size
        out, done = np.empty((len(queries), n_rows)), 0
        for block_rows, block in self._scoring_blocks(rows):
            out[:, done:done + block_rows.size] = self._block_scores(
                queries, block_rows, block
            )
            done += block_rows.size
        return out

    def _block_scores(self, queries, block_rows, block) -> np.ndarray:
        """The model's ``(q, b)`` float64 scores, calibrated pair by pair."""
        counts = self.callee_counts
        if counts is not None:
            counts = counts[block_rows]
        return self.model.similarity_matrix(
            queries, block, counts, calibrate=self.calibrate
        ).astype(np.float64, copy=False)

    def _sweep_top_k(
        self,
        queries: Sequence[FunctionEncoding],
        k: Optional[int],
        threshold: Optional[float],
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], List[int]]:
        """Whole-corpus candidates, scoring only rows that can still win.

        The calibrated score is ``M * exp(-d)``, ``d`` the distance
        between the row's and the query's callee counts, and ``M <= 1``.
        Queries sharing a count visit the corpus in *rings* of
        increasing ``d``: a ring is scored uncalibrated and scaled by its
        one factor, each block's scores are cut to ``k`` rows per query,
        and a query stops at the first ring whose factor -- the most a
        row from there on can score -- cannot reach its k-th score or
        its ``threshold``.  Selecting from the returned ``(rows,
        scores)`` is exact; also returns the rows scored per query.
        """
        head = self.model.siamese.similarity_from_matrix
        matrix = np.stack([np.asarray(q.vector) for q in queries])
        held = [_Held(k) for _ in queries]
        scored = [0] * len(queries)

        def settled(i: int, bound: float) -> bool:
            if threshold is not None and bound < threshold:
                return True
            return held[i].settled(bound)

        # no rings without calibration, nor in a corpus of one scoring
        # block (bookkeeping would cost more than it could skip): one
        # ring of every row, calibrated pair by pair
        ringed = self.calibrate and len(self) > SCORE_BLOCK_ROWS
        groups: Dict[Optional[int], List[int]] = {}
        for i, query in enumerate(queries):
            count = query.callee_count if ringed else None
            groups.setdefault(count, []).append(i)
        for count, members in groups.items():
            dist, rings = self._rings(count)
            for bound, factor, d in rings:
                members = [i for i in members if not settled(i, bound)]
                if not members:
                    break
                ring = None if d is None else np.flatnonzero(dist == d)
                for block_rows, block in self._scoring_blocks(ring):
                    if count is None:
                        scores = self._block_scores(
                            [queries[i] for i in members], block_rows, block
                        )
                    else:  # the float64 product, whatever dtype M comes in
                        scores = np.multiply(
                            head(matrix[members], block), factor,
                            dtype=np.float64,
                        )
                    for j, i in enumerate(members):
                        q_rows, q_scores = block_rows, scores[j]
                        if threshold is not None:
                            keep = q_scores >= threshold
                            q_rows, q_scores = q_rows[keep], q_scores[keep]
                        held[i].add(q_rows, q_scores)
                        scored[i] += block_rows.size
        return [h.merged() for h in held], scored

    def _rings(
        self, count: Optional[int], rows: Optional[np.ndarray] = None
    ):
        """``(dist, rings)`` over ``rows`` (default: the corpus) for
        queries calling ``count`` functions.

        ``rings`` lists ``(bound, factor, d)`` nearest first: the rows
        with ``dist == d`` (distances past :data:`LAST_RING` share it)
        score ``M * factor``, and as ``M <= 1`` no row from that ring on
        scores above ``bound`` -- the very float64 that scales the ring:
        rounded apart, a score could slip past the bound meant to stop it.
        ``count=None`` (an uncalibrated sweep) is one ring of every row
        (``d`` and ``dist`` are ``None``), scaled by exactly 1.
        """
        if count is None:
            return None, [(1.0, 1.0, None)]
        # block by block into an int16: corpus-long int64 temporaries
        # outweigh what the allocator keeps mapped, and fault on every call
        size = len(self) if rows is None else rows.size
        dist = np.empty(size, dtype=np.int16)
        sizes = np.zeros(LAST_RING + 1, dtype=np.int64)
        for start in range(0, size, 1 << 16):
            stop = start + (1 << 16)
            part = slice(start, stop) if rows is None else rows[start:stop]
            part = np.abs(self.callee_counts[part] - count)
            dist[start:stop] = np.minimum(part, LAST_RING, out=part)
            sizes += np.bincount(part, minlength=sizes.size)
        present = np.flatnonzero(sizes).astype(dist.dtype)  # no upcast in ==
        factors = np.exp(-present.astype(np.float64))
        return dist, list(zip(factors, factors, present))

    def _scoring_blocks(self, rows: Optional[np.ndarray] = None):
        """``(rows, vectors)`` scoring blocks over ``rows`` (strictly
        ascending; default: every row), in row order.

        The store's blocks are streamed (never the whole corpus at
        once): a fully selected block passes through copy-free, a partly
        selected one is gathered.  Shards are often small and a ring may
        take a few rows of each, so consecutive pieces are coalesced up
        to :data:`SCORE_BLOCK_ROWS` rows (one bounded memcpy).
        """
        blocks = list(self.vectors.iter_blocks())
        if rows is not None:
            cuts = np.searchsorted(
                rows, [start for start, _ in blocks] + [len(self)]
            ).tolist()
            if cuts[0] or cuts[-1] != rows.size:
                raise IndexError(f"rows outside the {len(self)}-row corpus")
        pending, held = [], 0

        def merged():
            if len(pending) == 1:
                return pending[0]
            return tuple(np.concatenate(part) for part in zip(*pending))

        for i, (start, block) in enumerate(blocks):
            size = block.shape[0]
            if rows is not None and cuts[i + 1] - cuts[i] < size:
                picked = rows[cuts[i]:cuts[i + 1]]
                if not picked.size:
                    continue
                block = block[picked - start]
            else:
                picked = np.arange(start, start + size, dtype=np.int64)
            if pending and held + picked.size > SCORE_BLOCK_ROWS:
                yield merged()
                pending, held = [], 0
            pending.append((picked, block))
            held += picked.size
        if pending:
            yield merged()

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

        Returns exactly what mapping :meth:`top_k` returns, rows and
        scores bit for bit: a score is a pure function of (query, row),
        so neither the batch a query rides in, nor the rows the sweep
        skips, nor the range a pool worker sweeps can change an answer.
        """
        if not len(queries):
            return []
        if len(self) == 0:
            return [[] for _ in queries]
        per_query = self.propose(queries, k, oversample)
        sweep_started = time.perf_counter()
        all_rows: Optional[np.ndarray] = None  # shared, never mutated

        def whole_corpus() -> np.ndarray:
            nonlocal all_rows
            if all_rows is None:
                all_rows = np.arange(len(self))
            return all_rows

        if all(rows is None for rows in per_query):
            if k is None and threshold is None:
                # every score is part of the answer: the (q, n) matrix
                # is the output, so materialising it is unavoidable
                scored = [
                    (whole_corpus(), row_scores)
                    for row_scores in self.score_matrix(queries)
                ]
                sizes = [len(self)] * len(queries)
            else:
                # streaming sweep: per-block (q, b) scoring + per-block
                # top-k, so batch memory stays O(q * block), not
                # O(q * corpus) -- the property that lets a CVE-library
                # batch run against a multi-million-row mmap store
                scored, sizes = self._sweep_top_k(queries, k, threshold)
        else:
            gathered = [
                rows if rows is not None else whole_corpus()
                for rows in per_query
            ]
            sizes = [int(rows.size) for rows in gathered]
            total = sum(sizes)
            # sort + drop repeats: np.unique's hash path takes 12x as
            # long on a few thousand candidate rows
            union = np.sort(np.concatenate(gathered))
            union = union[np.diff(union, prepend=-1) > 0]
            if len(queries) * union.size <= 2 * total:
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
        self._observe_batch(sizes, time.perf_counter() - sweep_started)
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

    def _observe_batch(self, sizes: List[int], sweep_s: float) -> None:
        """Record rows scored per query (``sizes``: the backend's
        candidate list, or what the exact sweep's rings visited), the
        fraction of the corpus that is, and the sweep time."""
        n = len(self)
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
            "Rows scored per query", buckets=SIZE_BUCKETS,
        )
        fraction = self.registry.histogram(
            "repro_ann_rerank_fraction",
            "Fraction of the corpus scored per query",
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
        ).inc(len(sizes))


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
