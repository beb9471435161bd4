"""Million-scale tiered ANN: int8 quantized sweep + IVF coarse partitions.

:class:`IvfPqIndex` is the approximate :class:`~repro.index.ann.AnnIndex`
backend (``backend="ivf-pq"``).  It layers three tiers so a query
touches a small, controllable fraction of a million-row corpus:

1. **Coarse partitioning** -- corpus rows are assigned to k-means
   centroids (inverted lists, one int32 row order plus list bounds).
   A query ranks centroids by L2 distance and probes only the
   ``nprobe`` nearest lists, so the probed fraction is roughly
   ``nprobe / n_lists``.  Assignment takes rows in chunks whose
   distance matrix fits :data:`ASSIGN_SCRATCH_BYTES`, so a build holds
   about 1 MiB of scratch beyond its codes, assignments and lists.
2. **Quantized sweep** -- probed rows are scored against a symmetric
   per-dimension int8 code book (¼ the bytes of the float32 shards):
   codes are widened block-by-block and pushed through the same Siamese
   head as the exact path, so the approximate ranking respects the
   model's actual similarity, not a proxy metric.  The calibrated score
   is ``M * exp(-d)``, ``d`` the callee-count distance, so -- like the
   exact sweep, with the same ring bounds and stop rule -- the probed
   rows are visited in rings of increasing ``d`` (found by one pass
   over the probed rows, not the exact index's count order), each
   scored uncalibrated and scaled by its ring's one factor, and a query
   stops at the first ring whose factor is strictly below its ``n``-th
   best score so far: only rows that can still reach the candidate set
   are dequantized at all.  Rings are taken ``n`` rows or more to a
   pass (tiny rings cost more in calls than they save in rows), and
   queries that call as many functions and probe the same lists (a
   storm of one CVE query) share each pass.
3. **Exact rerank** -- the best ``k * rerank`` survivors per query
   (:meth:`IvfPqIndex.propose`) are re-scored against the float32
   store -- once over their union when the queries' candidates overlap
   enough, else query by query -- and
   :meth:`~repro.index.ann.AnnIndex.top_k_batch` selects the final
   top-k from them with :func:`~repro.index.ann.select_top_k`.

The expensive construction passes (quantization, k-means, assignment)
serialise through :meth:`IvfPqIndex.state_dict` into a crash-safe store
artifact, and :meth:`IvfPqIndex.over_store` round-trips it: reopening an
unchanged corpus re-quantizes nothing, a state covering a prefix of the
corpus is extended incrementally, and
:attr:`IvfPqIndex.rows_quantized` counts exactly how many corpus rows
each construction actually (re)quantized -- 0 on a clean reopen.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.faults as faults
from repro.core.model import Asteria, FunctionEncoding
from repro.index.ann import (
    DEFAULT_MIN_CANDIDATES,
    LAST_RING,
    SCORE_BLOCK_ROWS,
    AnnIndex,
    _Held,
    _ring_list,
)
from repro.index.store import EmbeddingStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import current_span
from repro.utils.logging import get_logger
from repro.utils.rng import RNG, derive_seed

_LOG = get_logger("index.quant")

#: IVF-PQ persisted-state schema version (bump on incompatible layout).
IVFPQ_STATE_VERSION = 1

#: Lloyd iterations for the coarse quantizer.  The
#: partitions only gate candidate generation -- the exact rerank fixes
#: ranking -- so a handful of iterations is plenty.
KMEANS_ITERATIONS = 6

#: Hard ceiling on the k-means training sample: keeps centroid training
#: O(sample * n_lists) even for multi-million-row corpora.
KMEANS_SAMPLE_CAP = 200_000

#: Bytes of the float32 row-to-centroid distance matrix an assignment
#: holds at once (:func:`_nearest_centroid`), whatever the row count.
ASSIGN_SCRATCH_BYTES = 1 << 20


def default_n_lists(n_rows: int) -> int:
    """``n_lists=0`` resolves to ~sqrt(n): 1M rows -> 1000 lists."""
    return max(1, min(4096, int(round(math.sqrt(max(0, n_rows))))))


def quantize_int8(
    matrix: np.ndarray, scales: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-dimension int8: ``codes[i, d] ~= matrix[i, d] / scales[d]``.

    ``scales`` defaults to ``max|column| / 127`` (1.0 for all-zero
    columns so dequantization never divides by zero); pass existing
    scales to quantize appended rows consistently with a persisted code
    book.
    """
    matrix = np.asarray(matrix, dtype=np.float32)
    if scales is None:
        peak = (
            np.abs(matrix).max(axis=0)
            if matrix.shape[0]
            else np.zeros(matrix.shape[1], dtype=np.float32)
        )
        scales = np.where(peak > 0, peak / 127.0, 1.0).astype(np.float32)
    codes = np.clip(np.rint(matrix / scales), -127, 127).astype(np.int8)
    return codes, np.asarray(scales, dtype=np.float32)


def dequantize_int8(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Widen int8 codes back to float32 (the sweep-tier GEMM operand)."""
    return codes.astype(np.float32) * scales


def _nearest_centroid(
    matrix: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Argmin-L2 centroid per row.

    Rows go in chunks sized so the ``(rows, n_lists)`` float32 distance
    matrix stays within :data:`ASSIGN_SCRATCH_BYTES` (at least one row
    a chunk), filled in place in one reused buffer: ``-2 x.c + |c|^2``
    is the same float32 arithmetic as ``|c|^2 - 2 x.c``, so the
    argmin is too.
    """
    centroids = np.asarray(centroids, dtype=np.float32)
    c_norm = (centroids * centroids).sum(axis=1)
    ct = np.ascontiguousarray(centroids.T)
    n_rows = matrix.shape[0]
    chunk = max(1, ASSIGN_SCRATCH_BYTES // (4 * ct.shape[1]))
    d2 = np.empty((min(chunk, n_rows), ct.shape[1]), dtype=np.float32)
    out = np.empty(n_rows, dtype=np.int32)
    for start in range(0, n_rows, chunk):
        block = np.asarray(matrix[start:start + chunk], dtype=np.float32)
        scratch = d2[:block.shape[0]]
        np.matmul(block, ct, out=scratch)
        scratch *= -2.0
        scratch += c_norm
        out[start:start + block.shape[0]] = np.argmin(scratch, axis=1)
    return out


def kmeans_centroids(
    sample: np.ndarray,
    n_lists: int,
    seed: int,
    iterations: int = KMEANS_ITERATIONS,
) -> np.ndarray:
    """Deterministic Lloyd's k-means over a training sample.

    Empty clusters are re-seeded from random sample rows each round, so
    the quantizer always ends with ``n_lists`` live centroids (assuming
    the sample has that many rows).
    """
    sample = np.asarray(sample, dtype=np.float32)
    n = sample.shape[0]
    if n == 0:
        raise ValueError("cannot train centroids on an empty sample")
    n_lists = min(n_lists, n)
    gen = RNG(derive_seed(seed, "ivf-kmeans")).generator
    centroids = sample[gen.choice(n, size=n_lists, replace=False)].copy()
    for _ in range(iterations):
        assign = _nearest_centroid(sample, centroids)
        counts = np.bincount(assign, minlength=n_lists)
        sums = np.stack(
            [
                np.bincount(
                    assign, weights=sample[:, d], minlength=n_lists
                )
                for d in range(sample.shape[1])
            ],
            axis=1,
        )
        live = counts > 0
        centroids[live] = (
            sums[live] / counts[live, None]
        ).astype(np.float32)
        dead = np.flatnonzero(~live)
        if dead.size:
            centroids[dead] = sample[
                gen.choice(n, size=dead.size, replace=False)
            ]
    return centroids


def _rings(counts: np.ndarray, count: Optional[int], rows: np.ndarray):
    """``(dist, rings)`` over the probed ``rows`` for queries calling
    ``count`` functions: ``rings`` is :func:`~repro.index.ann._ring_list`
    of the distances present, ring ``d`` the rows with ``dist == d``.

    A per-count argsort of the probed rows would hand out slices, as the
    exact index's :class:`~repro.index.ann.CountLayout` does, but costs
    more than this one pass over them.  ``count=None`` (an uncalibrated
    sweep) is one ring of every row (``d`` and ``dist`` are ``None``),
    scaled by exactly 1.
    """
    if count is None:
        return None, [(1.0, 1.0, None)]
    # block by block into an int16: long int64 temporaries outweigh what
    # the allocator keeps mapped, and fault on every call
    dist = np.empty(rows.size, dtype=np.int16)
    sizes = np.zeros(LAST_RING + 1, dtype=np.int64)
    for start in range(0, rows.size, 1 << 16):
        stop = start + (1 << 16)
        part = np.abs(counts[rows[start:stop]] - count)
        dist[start:stop] = np.minimum(part, LAST_RING, out=part)
        sizes += np.bincount(part, minlength=sizes.size)
    present = np.flatnonzero(sizes).astype(dist.dtype)  # no upcast in ==
    return dist, _ring_list(present)


class IvfPqIndex(AnnIndex):
    """IVF coarse partitioning over an int8 quantized corpus.

    Parameters
    ----------
    n_lists:
        Coarse partitions (0 = auto, ~sqrt(corpus rows)).
    nprobe:
        Inverted lists probed per query; the recall-vs-speed knob.
    rerank:
        Exact-rerank oversampling: the quantized tier forwards
        ``k * rerank`` candidates per query to the float32 rerank.
    state:
        A ``(params, arrays)`` pair from :meth:`state_dict`: matching
        state skips quantization/k-means entirely; a prefix state
        quantizes only the appended rows.
    """

    def __init__(
        self,
        model: Asteria,
        vectors,
        callee_counts: Optional[np.ndarray] = None,
        calibrate: bool = True,
        n_lists: int = 0,
        nprobe: int = 8,
        rerank: int = 8,
        seed: int = 0,
        state: Optional[Tuple[Dict, Dict[str, np.ndarray]]] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        super().__init__(model, vectors, callee_counts, calibrate, registry)
        # chaos hook: lets tests fail ANN construction to exercise the
        # search layer's exact-sweep fallback
        faults.inject("ann.build")
        n = len(self)
        dim = int(self.vectors.shape[1])
        if nprobe <= 0:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        if rerank <= 0:
            raise ValueError(f"rerank must be positive, got {rerank}")
        #: auto list count (n_lists=0) resolves from the corpus size,
        #: but a persisted state's partitioning wins over re-deriving it
        #: -- otherwise growing past a sqrt boundary would discard the
        #: state and re-quantize everything instead of extending it
        self._auto_lists = not n_lists
        self.n_lists = int(n_lists) if n_lists else default_n_lists(n)
        self.n_lists = max(1, min(self.n_lists, max(1, n)))
        self.nprobe = int(nprobe)
        self.oversample = int(rerank)  # exact-rerank depth per top-k row
        self.seed = int(seed)
        #: corpus rows this construction actually quantized+assigned
        #: (instrumentation: a persisted-state reopen of an unchanged
        #: corpus reports 0)
        self.rows_quantized = 0
        self.loaded_from_state = False
        if state is not None and self._state_matches(state[0]):
            self.n_lists = int(state[0]["n_lists"])
            self._load_arrays(state[1])
            self.loaded_from_state = True
            if self._assignments.shape[0] < n:
                self._extend(self._assignments.shape[0])
        else:
            self._build()
        self._invert_lists()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        n = len(self)
        dim = int(self.vectors.shape[1])
        if n == 0:
            self._scales = np.ones(dim, dtype=np.float32)
            self._codes = np.zeros((0, dim), dtype=np.int8)
            self._centroids = np.zeros((self.n_lists, dim), np.float32)
            self._assignments = np.zeros(0, dtype=np.int32)
            return
        # pass 1: per-dimension dynamic range for the symmetric scales
        peak = np.zeros(dim, dtype=np.float32)
        for _start, block in self.vectors.iter_blocks():
            peak = np.maximum(
                peak, np.abs(np.asarray(block, np.float32)).max(axis=0)
            )
        self._scales = np.where(peak > 0, peak / 127.0, 1.0).astype(
            np.float32
        )
        # coarse quantizer trains on a bounded uniform sample
        gen = RNG(derive_seed(self.seed, "ivf-sample")).generator
        sample_size = min(
            n, max(4096, 40 * self.n_lists), KMEANS_SAMPLE_CAP
        )
        sample_rows = np.sort(
            gen.choice(n, size=sample_size, replace=False)
        )
        sample = np.asarray(self.vectors.take(sample_rows), np.float32)
        self._centroids = kmeans_centroids(
            sample, self.n_lists, self.seed
        )
        self.n_lists = self._centroids.shape[0]
        # pass 2: quantize + assign every row, block by block
        self._codes = np.empty((n, dim), dtype=np.int8)
        self._assignments = np.empty(n, dtype=np.int32)
        for start, block in self.vectors.iter_blocks():
            stop = start + block.shape[0]
            block32 = np.asarray(block, dtype=np.float32)
            self._codes[start:stop], _ = quantize_int8(
                block32, self._scales
            )
            self._assignments[start:stop] = _nearest_centroid(
                block32, self._centroids
            )
        self.rows_quantized = n

    def _extend(self, done: int) -> None:
        """Quantize + assign corpus rows past ``done`` (appended since
        the state was persisted), reusing the stored scales/centroids."""
        n = len(self)
        dim = int(self.vectors.shape[1])
        fresh_codes = np.empty((n - done, dim), dtype=np.int8)
        fresh_assign = np.empty(n - done, dtype=np.int32)
        for start, block in self.vectors.iter_blocks():
            stop = start + block.shape[0]
            if stop <= done:
                continue
            lo = max(start, done)
            rows = np.asarray(block[lo - start:], dtype=np.float32)
            fresh_codes[lo - done:stop - done], _ = quantize_int8(
                rows, self._scales
            )
            fresh_assign[lo - done:stop - done] = _nearest_centroid(
                rows, self._centroids
            )
        self._codes = np.concatenate([self._codes, fresh_codes])
        self._assignments = np.concatenate(
            [self._assignments, fresh_assign]
        )
        self.rows_quantized += n - done

    def _invert_lists(self) -> None:
        """Inverted lists as one array, the idiom of
        :class:`~repro.index.ann.CountLayout`: ``_order`` is the rows
        stably sorted by list (int32: 4 B/row), so list ``c`` is the
        ascending slice ``_order[_bounds[c]:_bounds[c + 1]]``."""
        # narrowed at once: the int64 argsort is freed before the gather
        self._order = np.argsort(self._assignments, kind="stable").astype(
            np.int32
        )
        self._bounds = np.searchsorted(
            self._assignments[self._order], np.arange(self.n_lists + 1)
        )

    # -- serving -----------------------------------------------------------

    @classmethod
    def over_store(
        cls,
        model: Asteria,
        store: EmbeddingStore,
        registry: Optional[MetricsRegistry] = None,
        **knobs,
    ) -> "IvfPqIndex":
        """Built from the state persisted beside the shards, and a durable
        store gets it written back unless it is current (best effort:
        the index serves either way)."""
        index = cls(
            model, store.vectors(), store.callee_counts(),
            state=store.read_ann_state(), registry=registry, **knobs,
        )
        if store.root is not None and (
            index.rows_quantized or not index.loaded_from_state
        ):
            try:
                store.write_ann_state(*index.state_dict())
            except OSError as exc:
                _LOG.warning("could not persist ANN state: %s", exc)
        return index

    def ann_stats(self) -> Dict[str, object]:
        return dict(
            ann_persisted=self.loaded_from_state,
            ann_rows_quantized=self.rows_quantized,
            ann_n_lists=self.n_lists,
            ann_nprobe=self.nprobe,
        )

    # -- candidate generation ----------------------------------------------

    def propose(
        self, queries: Sequence[FunctionEncoding], k: Optional[int]
    ) -> List[np.ndarray]:
        """Candidate rows per query, at the depth a top-``k`` answer
        reranks: ``max(k * oversample, DEFAULT_MIN_CANDIDATES)`` rows
        (``k=None``: every probed row)."""
        wanted = None
        if k is not None:
            wanted = max(k * self.oversample, DEFAULT_MIN_CANDIDATES)
        query_matrix = np.stack([np.asarray(q.vector) for q in queries])
        return self.candidate_rows_batch(query_matrix, wanted, queries)

    def candidate_rows_batch(
        self,
        query_matrix: np.ndarray,
        n: Optional[int],
        queries: Optional[Sequence[FunctionEncoding]] = None,
    ) -> List[np.ndarray]:
        """Probe the ``nprobe`` nearest inverted lists per query, rank
        the probed rows by quantized score, return the top-``n`` rows
        (ascending) for exact rerank.

        The ranking is calibrated with the callee counts of ``queries``
        and swept in rings (see the module docstring); without them it
        is the uncalibrated head's.  ``n=None``: the probed rows, unscored.
        """
        n_queries = query_matrix.shape[0]
        if len(self) == 0:
            return [np.zeros(0, dtype=np.int64) for _ in range(n_queries)]
        q32 = np.asarray(query_matrix, dtype=np.float32)
        c_norm = (self._centroids * self._centroids).sum(axis=1)
        d2 = c_norm[None, :] - 2.0 * (q32 @ self._centroids.T)
        nearest = np.argsort(d2, axis=1, kind="stable")
        probe = np.sort(nearest[:, :self.nprobe])
        # queries calling as many functions and probing the same lists
        # (a storm of one CVE query) sweep those lists' rings together
        calibrated = self.calibrate and queries is not None
        groups: Dict[Tuple, List[int]] = {}
        for i, lists in enumerate(probe.tolist()):
            count = queries[i].callee_count if calibrated else None
            groups.setdefault((count, tuple(lists)), []).append(i)
        head = self.model.siamese.similarity_from_matrix
        held = [_Held(n) for _ in range(n_queries)]
        probed, swept = [0] * n_queries, [0] * n_queries
        picked: List[Optional[np.ndarray]] = [None] * n_queries
        for (count, lists), members in groups.items():
            rows = np.concatenate(
                [self._order[self._bounds[c]:self._bounds[c + 1]]
                 for c in lists],
                dtype=np.int64,
            )
            for i in members:
                probed[i] = rows.size
            if n is None:
                rows.sort()
                for i in members:
                    picked[i] = rows  # shared, never mutated
                continue
            dist, rings = _rings(self.callee_counts, count, rows)
            while rings:
                bound = rings[0][0]
                members = [i for i in members if not held[i].settled(bound)]
                if not members:
                    break
                # a pass takes whole rings until it has n rows: a smaller
                # one costs more in calls than stopping early saves in rows
                parts, factors, width = [], [], 0
                while rings and width < n:
                    _, factor, d = rings.pop(0)
                    parts.append(rows if d is None else rows[dist == d])
                    factors.append(factor)
                    width += parts[-1].size
                ring = np.concatenate(parts)
                scale = np.repeat(factors, [part.size for part in parts])
                q_members = q32[members]
                for start in range(0, width, SCORE_BLOCK_ROWS):
                    chunk = ring[start:start + SCORE_BLOCK_ROWS]
                    block = dequantize_int8(self._codes[chunk], self._scales)
                    scores = np.multiply(
                        head(q_members, block),
                        scale[start:start + SCORE_BLOCK_ROWS],
                        dtype=np.float64,
                    )
                    for j, i in enumerate(members):
                        held[i].add(chunk, scores[j])
                for i in members:
                    swept[i] += width
        if n is not None:
            picked = [np.sort(h.merged()[0]) for h in held]
        self._observe_sweep(probed, swept, picked)
        return picked

    def _score_batch(
        self,
        queries: Sequence[FunctionEncoding],
        k: Optional[int],
        threshold: Optional[float],
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], List[int]]:
        """The proposed candidates, re-scored exactly."""
        gathered = self.propose(queries, k)
        sizes = [int(rows.size) for rows in gathered]
        # sort + drop repeats: np.unique's hash path takes 12x as long
        # on a few thousand candidate rows
        union = np.sort(np.concatenate(gathered))
        union = union[np.diff(union, prepend=-1) > 0]
        if len(queries) * union.size <= 2 * sum(sizes):
            # candidate sets overlap heavily (clustered / duplicate
            # queries): score the union once for all queries
            scores = self.score_matrix(queries, union)
            return [
                (rows, scores[i, np.searchsorted(union, rows)])
                for i, rows in enumerate(gathered)
            ], sizes
        # mostly-disjoint candidates: a (q, union) matrix would score far
        # more pairs than were ever candidates -- rerank per query
        return [
            (rows, self.score_matrix([queries[i]], rows)[0])
            for i, rows in enumerate(gathered)
        ], sizes

    def _observe_sweep(
        self, probed: List[int], swept: List[int], picked: List[np.ndarray]
    ) -> None:
        """Record, per query, the rows its probed lists hold (what
        ``nprobe`` buys), the rows the rings quantize-scored, and the
        candidates that survive to the exact rerank."""
        span = current_span()
        if span is not None:
            span.set(probed_rows=probed, swept_rows=swept)
        if self.registry is None:
            return
        probed_fraction = self.registry.histogram("repro_ann_probed_fraction")
        swept_fraction = self.registry.histogram("repro_ann_swept_fraction")
        depth = self.registry.histogram("repro_ann_rerank_depth")
        for size in probed:
            probed_fraction.observe(size / len(self))
        for size in swept:
            swept_fraction.observe(size / len(self))
        for rows in picked:
            depth.observe(rows.size)

    # -- persisted state ---------------------------------------------------

    @property
    def resident_nbytes(self) -> int:
        """Bytes held resident by the quantized tier (codes, lists,
        centroids) -- the number the bytes/vector floor measures."""
        arrays = [
            self._scales, self._centroids, self._assignments, self._codes,
            self._order, self._bounds,
        ]
        return int(sum(a.nbytes for a in arrays))

    def _state_matches(self, params: Dict) -> bool:
        return (
            params.get("kind") == "ivf-pq"
            and params.get("version") == IVFPQ_STATE_VERSION
            and int(params.get("dim", -1)) == self.vectors.shape[1]
            and (
                self._auto_lists
                or int(params.get("n_lists", -1)) == self.n_lists
            )
            and int(params.get("n_lists", -1)) >= 1
            and int(params.get("seed", -1)) == self.seed
            and int(params.get("n_rows", -1)) <= len(self)
        )

    def _load_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self._scales = np.asarray(arrays["scales"], dtype=np.float32)
        self._centroids = np.asarray(
            arrays["centroids"], dtype=np.float32
        )
        self._assignments = np.asarray(
            arrays["assignments"], dtype=np.int32
        )
        self._codes = np.asarray(arrays["codes"], dtype=np.int8)

    def state_dict(self) -> Tuple[Dict, Dict[str, np.ndarray]]:
        """``(params, arrays)`` serialisable into the store manifest.

        ``nprobe``/``rerank`` are deliberately absent: they are
        query-time knobs, so retuning them reuses the persisted codes.
        """
        params = {
            "kind": "ivf-pq",
            "version": IVFPQ_STATE_VERSION,
            "dim": int(self.vectors.shape[1]),
            "n_lists": self.n_lists,
            "seed": self.seed,
            "n_rows": len(self),
        }
        arrays: Dict[str, np.ndarray] = {
            "scales": self._scales,
            "centroids": self._centroids,
            "assignments": self._assignments,
            "codes": self._codes,
        }
        return params, arrays
