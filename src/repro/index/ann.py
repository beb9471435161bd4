"""Top-k nearest-neighbour search over cached function encodings.

Every backend answers the paper's online phase -- score a query
encoding against the corpus, keep the top-k -- behind :class:`AnnIndex`:
:meth:`~AnnIndex.top_k_batch` validates, records and selects, and hands
the scoring to the backend.

* :class:`BruteForceIndex` (``exact``) sweeps the corpus block by block
  over the store's memory-mapped shards, never materialised as one
  array -- the reference the tiered index is tested against;
* :class:`~repro.index.quant.IvfPqIndex` (``ivf-pq``) reranks the
  candidates an IVF probe + int8 quantized sweep propose (see
  :mod:`repro.index.quant`).

:func:`serve_index` is the one call that serves a backend over a store:
the backend's :meth:`~AnnIndex.over_store` builds it, a failed build
degrades to the exact sweep, and :meth:`~AnnIndex.ann_stats` is what it
reports of itself.

A batch reads the corpus once instead of Q times.  Both sweeps -- the
exact one over the corpus and the quantized one over the probed lists
-- score only the rows that can still win: rings of callee-count
distance with one bound and factor each (:func:`_ring_list`), stopped
on the bound ``exp(-|dC|)`` by one rule (:class:`_Held`).  The exact
index finds a ring without a corpus pass: it sorts its rows by callee
count once, at construction (:class:`CountLayout`, 4 B/row), and ring
``d`` is the slices of the counts ``d`` away.  Selection uses
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
from repro.index.store import EmbeddingStore, ShardedMatrix
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import current_span
from repro.utils.logging import get_logger

_LOG = get_logger("index.ann")

#: The fewest candidates a tiered backend hands its exact rerank.
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


def _ring_list(distances: Sequence[int]) -> List[Tuple[float, float, int]]:
    """``(bound, factor, d)`` per callee-count distance present
    (ascending, distances past :data:`LAST_RING` counted as it).

    The rows of ring ``d`` score ``M * factor``, and as ``M <= 1`` no
    row from that ring on scores above ``bound`` -- the very float64
    that scales the ring: rounded apart, a score could slip past the
    bound meant to stop it.
    """
    factors = np.exp(-np.asarray(distances, dtype=np.float64))
    return list(zip(factors, factors, distances))


class CountLayout:
    """An index's rows in callee-count order, built once per snapshot.

    ``order`` is the row order stably sorted by count (int32: 4 B/row),
    so the rows calling ``values[j]`` functions are the ascending slice
    ``order[bounds[j]:bounds[j + 1]]``.  ``values`` and ``bounds`` are
    sized by the distinct counts, never by the largest one.  The ring at
    distance ``d`` of a query calling ``c`` functions is then the slices
    of counts ``c - d`` and ``c + d`` -- the two end ranges for
    :data:`LAST_RING` -- found without a pass over the corpus.
    """

    def __init__(self, counts: np.ndarray):
        n = counts.size
        # narrowed at once: the int64 argsort is freed before the gather
        self.order = np.argsort(counts, kind="stable").astype(np.int32)
        ordered = counts[self.order]
        first = np.ones(n, dtype=bool)  # does a count's slice start here?
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        firsts = np.flatnonzero(first)
        self.values = ordered[firsts]
        self.bounds = np.append(firsts, n)

    def rings(self, count: int) -> List[Tuple[float, float, int]]:
        """:func:`_ring_list` for queries calling ``count`` functions."""
        dist = np.minimum(np.abs(self.values - count), LAST_RING)
        return _ring_list(np.unique(dist).tolist())

    def ring(self, count: int, d: int) -> np.ndarray:
        """The rows (ascending) at distance ``d`` from ``count``, or at
        least that far for ``d == LAST_RING``."""
        ends = [count - d, count + d]
        lo = np.searchsorted(self.values, ends, side="left").tolist()
        hi = np.searchsorted(self.values, ends, side="right").tolist()
        if d == LAST_RING:
            spans = [(0, hi[0]), (lo[1], self.values.size)]
        else:
            spans = [(lo[0], hi[0]), (lo[1], hi[1])] if d else [(lo[0], hi[0])]
        parts = [
            self.order[self.bounds[i]:self.bounds[j]]
            for i, j in spans if j > i
        ]
        if sum(j - i for i, j in spans) == 1:
            return parts[0]  # one count's rows: already ascending
        # ascending runs, one per count: timsort merges them in a pass
        return np.sort(np.concatenate(parts), kind="stable")


class AnnIndex:
    """Common interface: validation, observation and top-k selection
    around a backend's scoring step (:meth:`_score_batch`)."""

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

    # -- serving (backend-specific) ----------------------------------------

    @classmethod
    def over_store(
        cls,
        model: Asteria,
        store: EmbeddingStore,
        registry: Optional[MetricsRegistry] = None,
        **knobs,
    ) -> "AnnIndex":
        """The index over ``store``'s flushed rows.  ``knobs`` are the
        tiered backend's; the exact sweep has none to take."""
        return cls(
            model, store.vectors(), store.callee_counts(), registry=registry
        )

    def ann_stats(self) -> Dict[str, object]:
        """What the index reports of itself, by ``EngineStats`` field
        (the exact sweep: nothing)."""
        return {}

    def _score_batch(self, queries, k, threshold):
        """Per query, ``(rows, scores)`` holding its top-``k`` at or
        above ``threshold``, and the rows scored per query."""
        raise NotImplementedError

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
    ) -> List[Neighbor]:
        """Top-``k`` neighbours by exact model score (highest first).

        ``k=None`` returns every candidate; ``threshold`` drops results
        scoring below it.  Ties are broken by row for determinism.
        """
        return self.top_k_batch([query], k=k, threshold=threshold)[0]

    def top_k_batch(
        self,
        queries: Sequence[FunctionEncoding],
        k: Optional[int] = 10,
        threshold: Optional[float] = None,
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
        started = time.perf_counter()
        scored, sizes = self._score_batch(queries, k, threshold)
        self._observe_batch(sizes, time.perf_counter() - started)
        results: List[List[Neighbor]] = []
        for q_rows, q_scores in scored:
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
        fraction of the corpus that is, and the sweep time.  The
        candidates' count is the queries the index answered."""
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
        candidates = self.registry.histogram("repro_ann_candidates")
        fraction = self.registry.histogram("repro_ann_rerank_fraction")
        for size in sizes:
            candidates.observe(size)
            if n:
                fraction.observe(size / n)
        self.registry.histogram("repro_ann_sweep_seconds").observe(sweep_s)


class BruteForceIndex(AnnIndex):
    """Exact backend: the ring sweep over every row."""

    #: the callee-count order the sweep finds rings in (``None``
    #: uncalibrated: the sweep is one pass over every row)
    _layout: Optional[CountLayout] = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # built now, not on first use: threads sweep an index unlocked
        if self.calibrate:
            self._layout = CountLayout(self.callee_counts)

    def _score_batch(
        self,
        queries: Sequence[FunctionEncoding],
        k: Optional[int],
        threshold: Optional[float],
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], List[int]]:
        """The ring sweep: the whole corpus, scoring only rows that can
        still win.

        The calibrated score is ``M * exp(-d)``, ``d`` the distance
        between the row's and the query's callee counts, and ``M <= 1``.
        Queries sharing a count visit the corpus in *rings* of
        increasing ``d``, each a slice or two of the index's
        :class:`CountLayout`: a ring is scored uncalibrated and scaled by
        its one factor, each block's scores are cut to ``k`` rows per query,
        and a query stops at the first ring whose factor -- the most a
        row from there on can score -- cannot reach its k-th score or
        its ``threshold``.  Selecting from the returned ``(rows,
        scores)`` is exact; also returns the rows scored per query.
        Cutting each block to ``k`` keeps a batch's memory O(q * block),
        not O(q * corpus), so a CVE-library batch can run against a
        multi-million-row mmap store; only ``k=None`` with no
        ``threshold`` holds every score, as every score is the answer.
        """
        head = self.model.siamese.similarity_from_matrix
        matrix = np.stack([np.asarray(q.vector) for q in queries])
        held = [_Held(k) for _ in queries]
        scored = [0] * len(queries)

        def settled(i: int, bound: float) -> bool:
            if threshold is not None and bound < threshold:
                return True
            return held[i].settled(bound)

        # no rings without calibration (no layout), nor in a corpus of
        # one scoring block (bookkeeping would cost more than it could
        # skip): one ring of every row, calibrated pair by pair
        layout = self._layout
        ringed = layout is not None and len(self) > SCORE_BLOCK_ROWS
        groups: Dict[Optional[int], List[int]] = {}
        for i, query in enumerate(queries):
            count = query.callee_count if ringed else None
            groups.setdefault(count, []).append(i)
        for count, members in groups.items():
            rings = [(1.0, 1.0, None)] if count is None else layout.rings(count)
            for bound, factor, d in rings:
                members = [i for i in members if not settled(i, bound)]
                if not members:
                    break
                ring = None if d is None else layout.ring(count, d)
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


def _backends() -> Dict[str, Type[AnnIndex]]:
    """Every backend :func:`make_index` accepts, by name."""
    # imported here: quant.py subclasses AnnIndex from this module
    from repro.index.quant import IvfPqIndex

    return {"exact": BruteForceIndex, "ivf-pq": IvfPqIndex}


def known_backends() -> List[str]:
    """Canonical backend names accepted by :func:`make_index`."""
    return sorted(_backends())


def _backend(name: str) -> Type[AnnIndex]:
    """The backend called ``name``.  An unknown one is the typed
    bad-request error (CLI exit 6, HTTP 400), so a typo'd ``--backend``
    surfaces as a client error, not an internal KeyError."""
    cls = _backends().get(name)
    if cls is None:
        # lazy: repro.api pulls in this module at package-import time
        from repro.api.errors import BadRequestError

        raise BadRequestError(
            f"unknown backend {name!r} (choose from "
            f"{', '.join(known_backends())})"
        )
    return cls


def make_index(
    backend: str,
    model: Asteria,
    vectors,
    callee_counts: Optional[np.ndarray] = None,
    **options,
) -> AnnIndex:
    """Instantiate a backend by name (``exact`` or ``ivf-pq``)."""
    return _backend(backend)(model, vectors, callee_counts, **options)


def serve_index(
    backend: str,
    model: Asteria,
    store: EmbeddingStore,
    registry: Optional[MetricsRegistry] = None,
    **knobs,
) -> Tuple[AnnIndex, Optional[str]]:
    """``backend`` built over ``store`` with ``knobs``, and ``None``; or,
    when that build fails other than as a client error (unknown backend,
    bad knob), the exact sweep -- correct, slower -- and the reason."""
    from repro.api.errors import BadRequestError  # lazy: see _backend

    cls = _backend(backend)
    try:
        return cls.over_store(model, store, registry, **knobs), None
    except BadRequestError:
        raise
    except Exception as exc:
        if cls is BruteForceIndex:
            raise  # nothing simpler to fall back to
        reason = (
            f"{backend} index construction failed ({exc}); "
            f"serving exact sweeps"
        )
    _LOG.warning("ANN fallback: %s", reason)
    if registry is not None:
        registry.counter("repro_ann_fallback_total").inc()
    return BruteForceIndex.over_store(model, store, registry), reason
