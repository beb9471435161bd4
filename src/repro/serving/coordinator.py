"""Coordinator: range planning and partial merge over the sweep pool.

Sits between a caller holding encoded queries and the
:class:`ShardWorkerPool`.  Per batch it pins the active store under its
own lock, cuts the corpus into shard-aligned worker ranges, sweeps them
in parallel, and merges the per-range partials with the same
:func:`~repro.index.ann.select_top_k` the single-process sweep ends
with.  The merge is exact *including tie order*: every global top-k row
is necessarily in its own range's top-k (scores are per-row and
identical either way), and range-local ties at the cut keep exactly the
ascending-row winners the global lexsort would keep.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import Asteria, FunctionEncoding
from repro.index.ann import select_top_k
from repro.index.store import EmbeddingStore, SearchHit
from repro.serving import generations
from repro.serving.pool import ShardWorkerPool

__all__ = ["ServingCoordinator", "shard_ranges"]


def shard_ranges(
    offsets: Sequence[int], n_parts: int
) -> List[Tuple[int, int]]:
    """Cut cumulative shard offsets into ≤``n_parts`` contiguous ranges
    of near-equal row counts: each ideal cut ``i * n_rows / n_parts``
    moves to the nearest shard boundary (a shard is the granularity of
    parallelism).  Where a range is cut cannot change a bit of the
    merged answer -- a score is a pure function of (query, row).
    """
    n_rows = offsets[-1] if offsets else 0
    if n_rows <= 0 or n_parts < 1:
        return []
    cuts = sorted({
        min(offsets, key=lambda bound: abs(bound - n_rows * i / n_parts))
        for i in range(n_parts + 1)
    })
    return list(zip(cuts, cuts[1:]))


class ServingCoordinator:
    """Owns the worker pool and the pinned store."""

    def __init__(
        self,
        model: Asteria,
        index_root,
        n_workers: int,
        registry=None,
        calibrate: bool = True,
    ):
        self.index_root = Path(index_root)
        self.calibrate = calibrate
        self._registry = registry
        self._lock = threading.Lock()
        self._generation_rel: str = generations.FLAT_GENERATION
        self._store: Optional[EmbeddingStore] = None
        self.pool = ShardWorkerPool(model, n_workers, registry=registry)

    def activate(self, rel: str, store: EmbeddingStore) -> None:
        """Pin ``store`` (named ``rel``) for new queries."""
        with self._lock:
            self._generation_rel = rel
            self._store = store

    def _pin(self) -> Tuple[str, EmbeddingStore]:
        with self._lock:
            if self._store is None:
                raise RuntimeError("coordinator has no active store")
            return self._generation_rel, self._store

    def query_batch(
        self,
        encodings: Sequence[FunctionEncoding],
        top_k: Optional[int],
        threshold: Optional[float],
        timeout_s: Optional[float] = None,
    ) -> Tuple[List[List[SearchHit]], int, str]:
        """Shard-parallel exact sweep for a batch of encoded queries.

        Every worker sweeps its whole range; the merge below is the same
        :func:`select_top_k` the single-process path ends with, so
        results stay bit-for-bit identical to it.

        Returns ``(hit_lists, corpus_rows, rel)`` -- ``rel`` names the
        store every one of these results came from.
        """
        rel, store = self._pin()
        n_rows = store.n_flushed
        if n_rows == 0 or not encodings:
            return [[] for _ in encodings], n_rows, rel
        began = time.monotonic()
        q_vectors = np.stack(
            [np.asarray(e.vector, dtype=np.float64) for e in encodings]
        )
        q_counts = np.array(
            [e.callee_count for e in encodings], dtype=np.int64
        )
        ranges = shard_ranges(store.shard_offsets(), self.pool.n_workers)
        per_range = self.pool.sweep(
            str(store.root), ranges, q_vectors, q_counts,
            top_k, threshold, self.calibrate, timeout_s=timeout_s,
        )
        hit_lists: List[List[SearchHit]] = []
        for qi in range(len(encodings)):
            rows = np.concatenate([partials[qi][0] for partials in per_range])
            scores = np.concatenate(
                [partials[qi][1] for partials in per_range]
            )
            top = select_top_k(scores, rows, top_k)
            hit_lists.append([
                store.hit(row, score)
                for row, score in zip(rows[top].tolist(), scores[top].tolist())
            ])
        if self._registry is not None:
            self._registry.counter(
                "repro_serve_pool_queries_total"
            ).inc(len(encodings))
            self._registry.histogram(
                "repro_serve_pool_sweep_seconds"
            ).observe(time.monotonic() - began)
        return hit_lists, n_rows, rel

    def close(self) -> None:
        self.pool.close()  # idempotent
