"""Million-scale tiered ANN: int8 quantized sweep + IVF coarse partitions.

:class:`IvfPqIndex` is the approximate :class:`~repro.index.ann.AnnIndex`
backend (``backend="ivf-pq"``).  It layers three tiers so a query
touches a small, controllable fraction of a million-row corpus:

1. **Coarse partitioning** -- corpus rows are assigned to k-means
   centroids (inverted lists).  A query ranks centroids by L2 distance
   and probes only the ``nprobe`` nearest lists, so the swept fraction
   is roughly ``nprobe / n_lists``.
2. **Quantized sweep** -- probed rows are scored against a symmetric
   per-dimension int8 code book (¼ the bytes of the float32 shards).
   Codes are widened block-by-block and pushed through the same
   calibrated Siamese margin as the exact path, so the approximate
   ranking respects the model's actual similarity, not a proxy metric.
3. **Exact rerank** -- the best ``k * rerank`` survivors per query are
   handed back to :meth:`AnnIndex.top_k_batch`, which re-scores them
   against the float32 store through the union-vs-per-query cost gate
   and selects the final top-k with :func:`select_top_k`.

The expensive construction passes (quantization, k-means, assignment)
serialise through :meth:`IvfPqIndex.state_dict` into a crash-safe store
artifact, so reopening an unchanged corpus re-quantizes nothing; a state
covering a prefix of the corpus is extended incrementally and
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
    SCORE_BLOCK_ROWS,
    AnnIndex,
    select_top_k,
)
from repro.obs.metrics import (
    FRACTION_BUCKETS,
    SIZE_BUCKETS,
    MetricsRegistry,
)

from repro.utils.rng import RNG, derive_seed

#: IVF-PQ persisted-state schema version (bump on incompatible layout).
IVFPQ_STATE_VERSION = 1

#: Lloyd iterations for the coarse quantizer.  The
#: partitions only gate candidate generation -- the exact rerank fixes
#: ranking -- so a handful of iterations is plenty.
KMEANS_ITERATIONS = 6

#: Hard ceiling on the k-means training sample: keeps centroid training
#: O(sample * n_lists) even for multi-million-row corpora.
KMEANS_SAMPLE_CAP = 200_000


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
    """Argmin-L2 centroid per row, chunked so the ``(rows, n_lists)``
    distance matrix never exceeds a scoring block."""
    centroids = np.asarray(centroids, dtype=np.float32)
    c_norm = (centroids * centroids).sum(axis=1)
    out = np.empty(matrix.shape[0], dtype=np.int32)
    for start in range(0, matrix.shape[0], SCORE_BLOCK_ROWS):
        block = np.asarray(
            matrix[start:start + SCORE_BLOCK_ROWS], dtype=np.float32
        )
        d2 = c_norm[None, :] - 2.0 * (block @ centroids.T)
        out[start:start + block.shape[0]] = np.argmin(d2, axis=1)
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


class IvfPqIndex(AnnIndex):
    """IVF coarse partitioning over an int8 quantized corpus.

    Parameters
    ----------
    n_lists:
        Coarse partitions (0 = auto, ~sqrt(corpus rows)).
    nprobe:
        Inverted lists swept per query; the recall-vs-speed knob.
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
        self.oversample = int(rerank)  # default exact-rerank depth
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
        self._lists = self._lists_from_assignments()

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

    def _lists_from_assignments(self) -> List[np.ndarray]:
        """Inverted lists, each ascending (stable sort of an
        already-ascending row order)."""
        order = np.argsort(self._assignments, kind="stable")
        bounds = np.searchsorted(
            self._assignments[order], np.arange(self.n_lists + 1)
        )
        return [
            order[bounds[i]:bounds[i + 1]].astype(np.int64)
            for i in range(self.n_lists)
        ]

    # -- quantized scoring --------------------------------------------------

    def _approx_block(self, rows: np.ndarray) -> np.ndarray:
        """Float32 reconstruction of ``rows`` from the resident codes."""
        return dequantize_int8(self._codes[rows], self._scales)

    def _approx_scores(
        self, queries: Sequence[FunctionEncoding], rows: np.ndarray
    ) -> np.ndarray:
        """Calibrated Siamese scores against the *quantized* corpus.

        Same margin computation as the exact tier, fed with block-wise
        dequantized codes -- so the candidate ranking already reflects
        calibration and head weights, and rerank only has to undo the
        quantization error.
        """
        out = np.empty((len(queries), rows.shape[0]))
        calibrate = self.calibrate and self.callee_counts is not None
        for start in range(0, rows.shape[0], SCORE_BLOCK_ROWS):
            chunk = rows[start:start + SCORE_BLOCK_ROWS]
            counts = (
                None if self.callee_counts is None
                else self.callee_counts[chunk]
            )
            out[:, start:start + chunk.shape[0]] = (
                self.model.similarity_matrix(
                    queries, self._approx_block(chunk), counts,
                    calibrate=calibrate,
                )
            )
        return out

    # -- candidate generation ----------------------------------------------

    def candidate_rows(
        self,
        query_vector: np.ndarray,
        n: Optional[int],
        queries: Optional[Sequence[FunctionEncoding]] = None,
    ) -> np.ndarray:
        return self.candidate_rows_batch(
            np.asarray(query_vector)[None, :], n, queries
        )[0]

    def candidate_rows_batch(
        self,
        query_matrix: np.ndarray,
        n: Optional[int],
        queries: Optional[Sequence[FunctionEncoding]] = None,
    ) -> List[Optional[np.ndarray]]:
        """Probe the ``nprobe`` nearest inverted lists per query, rank
        the probed rows by quantized score, return the top-``n`` rows
        (ascending) for exact rerank."""
        total_rows = len(self)
        empty = np.zeros(0, dtype=np.int64)
        if total_rows == 0:
            return [empty for _ in range(query_matrix.shape[0])]
        q32 = np.asarray(query_matrix, dtype=np.float32)
        c_norm = (self._centroids * self._centroids).sum(axis=1)
        d2 = c_norm[None, :] - 2.0 * (q32 @ self._centroids.T)
        nprobe = min(self.nprobe, self.n_lists)
        probe = np.argsort(d2, axis=1, kind="stable")[:, :nprobe]
        gathered: List[np.ndarray] = []
        for i in range(q32.shape[0]):
            lists = [self._lists[c] for c in probe[i]]
            rows = (
                np.sort(np.concatenate(lists)) if lists else empty
            )
            gathered.append(rows)
        if queries is None:
            queries = [
                FunctionEncoding(
                    name=f"q{i}", arch="", binary_name="",
                    vector=np.asarray(query_matrix[i], np.float64),
                    callee_count=0,
                )
                for i in range(query_matrix.shape[0])
            ]
        n_queries = len(gathered)
        total = sum(rows.size for rows in gathered)
        union = (
            np.unique(np.concatenate(gathered)) if total else None
        )
        if union is None:
            picked = [empty for _ in gathered]
        elif n_queries * union.size <= 2 * total:
            # heavily-overlapping probes: quantize-score the union once
            scores = self._approx_scores(queries, union)
            picked = [
                self._pick(
                    scores[i, np.searchsorted(union, rows)], rows, n
                )
                for i, rows in enumerate(gathered)
            ]
        else:
            picked = [
                self._pick(
                    self._approx_scores([queries[i]], rows)[0], rows, n
                )
                if rows.size else empty
                for i, rows in enumerate(gathered)
            ]
        self._observe_sweep(gathered, picked, total_rows)
        return picked

    def _pick(
        self, scores: np.ndarray, rows: np.ndarray, n: Optional[int]
    ) -> np.ndarray:
        wanted = rows.size if n is None else min(n, rows.size)
        top = select_top_k(scores, rows, wanted)
        return np.sort(rows[top])

    def _observe_sweep(
        self,
        gathered: List[np.ndarray],
        picked: List[np.ndarray],
        total_rows: int,
    ) -> None:
        if self.registry is None or not total_rows:
            return
        swept = self.registry.histogram(
            "repro_ann_swept_fraction",
            "Fraction of the corpus swept by the quantized tier "
            "per query",
            buckets=FRACTION_BUCKETS,
        )
        depth = self.registry.histogram(
            "repro_ann_rerank_depth",
            "Candidate rows surviving to the float32 exact rerank "
            "per query",
            buckets=SIZE_BUCKETS,
        )
        for rows in gathered:
            swept.observe(rows.size / total_rows)
        for rows in picked:
            depth.observe(rows.size)

    # -- persisted state ---------------------------------------------------

    @property
    def rows_projected(self) -> int:
        """Rows of construction work this instance actually performed,
        under the name ``/v1/stats`` reports (``ann_rows_projected``)."""
        return self.rows_quantized

    @property
    def resident_nbytes(self) -> int:
        """Bytes held resident by the quantized tier (codes, lists,
        centroids) -- the number the bytes/vector floor measures."""
        arrays = [
            self._scales, self._centroids, self._assignments, self._codes
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
            and int(params.get("pq_m", 0)) == 0  # no codebook states
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
