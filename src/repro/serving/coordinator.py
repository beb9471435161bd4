"""Coordinator: range planning, partial merge, and hot generation swap.

Sits between the engine's query paths and the :class:`ShardWorkerPool`.
Per batch it pins the active generation (root + open store) under a
lock, cuts the corpus into shard-aligned worker ranges, sweeps them in
parallel, and merges the per-range partials with the same
:func:`~repro.index.ann.select_top_k` the single-process sweep ends
with.  The merge is exact *including tie order*: every global top-k row
is necessarily in its own range's top-k (scores are per-row and
identical either way), and range-local ties at the cut keep exactly the
ascending-row winners the global lexsort would keep.

A swap never touches in-flight queries: they hold a reference to the
generation they pinned at admission, whose shard files are immutable,
while :meth:`swap_to` atomically rewrites the ``CURRENT`` pointer and
re-pins new arrivals to the new store.  Every response therefore comes
from exactly one generation -- no torn merges across a flip.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import Asteria, FunctionEncoding
from repro.index.ann import SCORE_BLOCK_ROWS, select_top_k
from repro.index.search import SearchHit
from repro.index.store import EmbeddingStore
from repro.serving import generations
from repro.serving.pool import ShardWorkerPool
from repro.utils.logging import get_logger

_LOG = get_logger("serving.coordinator")

__all__ = ["ServingCoordinator", "shard_ranges"]


def scoring_block_offsets(
    offsets: Sequence[int], block_rows: int = SCORE_BLOCK_ROWS
) -> List[int]:
    """Cumulative boundaries of the global sweep's scoring blocks.

    Replicates :meth:`AnnIndex._scoring_blocks`' greedy shard
    coalescing (consecutive shards gathered up to ``block_rows``), so
    worker ranges can be cut exactly where the single-process sweep
    cuts its GEMM blocks.
    """
    bounds = [0]
    pending = 0
    for i in range(len(offsets) - 1):
        size = offsets[i + 1] - offsets[i]
        if pending and pending + size > block_rows:
            bounds.append(bounds[-1] + pending)
            pending = 0
        pending += size
    if pending:
        bounds.append(bounds[-1] + pending)
    return bounds


def shard_ranges(
    offsets: Sequence[int], n_parts: int
) -> List[Tuple[int, int]]:
    """Cut cumulative shard offsets into ≤``n_parts`` contiguous ranges.

    Ranges are aligned to the global sweep's *scoring-block* boundaries
    (shard-aligned, coalesced up to :data:`SCORE_BLOCK_ROWS` rows), not
    just shard boundaries: each worker's block coalescer, restarted at
    a global block boundary, regenerates the blocks the single-process
    sweep would score there.  The bit-for-bit merge no longer rests on
    that -- a score is a pure function of (query, row), whatever block
    it is computed in -- so the rule only sets the granularity of
    parallelism; dropping it is a follow-up.
    """
    n_rows = offsets[-1] if offsets else 0
    if n_rows <= 0 or n_parts < 1:
        return []
    bounds = scoring_block_offsets(offsets)
    target = n_rows / n_parts
    # greedy: close a range at the first block boundary past the ideal
    # cumulative cut for that range
    ranges: List[Tuple[int, int]] = []
    start = 0
    cuts_done = 0
    for boundary in bounds[1:]:
        ideal = (cuts_done + 1) * target
        if boundary >= ideal or boundary == n_rows:
            ranges.append((start, boundary))
            start = boundary
            cuts_done += 1
            if cuts_done == n_parts:
                break
    if start < n_rows:
        # fewer blocks than parts, or rounding left a tail: extend the
        # last range to cover it
        if ranges:
            ranges[-1] = (ranges[-1][0], n_rows)
        else:
            ranges = [(0, n_rows)]
    return ranges


class ServingCoordinator:
    """Owns the worker pool and the active-generation pin."""

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
        self._closed = False

    # -- generation pin ----------------------------------------------------

    @property
    def generation(self) -> str:
        with self._lock:
            return self._generation_rel

    @property
    def generation_seq(self) -> int:
        return generations.generation_seq(self.generation)

    def activate(self, rel: str, store: EmbeddingStore) -> None:
        """Pin ``store`` (the generation at ``rel``) for new queries."""
        with self._lock:
            self._generation_rel = rel
            self._store = store
        if self._registry is not None:
            self._registry.gauge(
                "repro_serve_active_generation",
                "Sequence number of the generation serving new queries",
            ).set(generations.generation_seq(rel))

    def _pin(self) -> Tuple[str, EmbeddingStore]:
        with self._lock:
            if self._store is None:
                raise RuntimeError("coordinator has no active generation")
            return self._generation_rel, self._store

    # -- queries -----------------------------------------------------------

    def query_batch(
        self,
        encodings: Sequence[FunctionEncoding],
        top_k: Optional[int],
        threshold: Optional[float],
        timeout_s: Optional[float] = None,
        candidates: Optional[Sequence[np.ndarray]] = None,
    ) -> Tuple[List[List[SearchHit]], int, str]:
        """Shard-parallel exact sweep for a batch of encoded queries.

        ``candidates`` (per-query global row arrays, from a tiered ANN
        backend) restricts each worker to its range's slice of those
        rows; ``None`` sweeps every range fully.  Either way the merge
        below is the same :func:`select_top_k` the single-process path
        ends with, so results stay bit-for-bit identical to it.

        Returns ``(hit_lists, corpus_rows, generation_rel)`` -- the
        generation every one of these results came from.
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
            candidates=candidates,
        )
        hit_lists: List[List[SearchHit]] = []
        for qi in range(len(encodings)):
            rows = np.concatenate(
                [partials[qi][0] for partials in per_range]
            ) if per_range else np.zeros(0, dtype=np.int64)
            scores = np.concatenate(
                [partials[qi][1] for partials in per_range]
            ) if per_range else np.zeros(0, dtype=np.float64)
            keep = select_top_k(scores, rows, top_k)
            hits = []
            for pos in keep:
                meta = store.metadata_at(int(rows[pos]))
                hits.append(SearchHit(
                    row=meta.row,
                    score=float(scores[pos]),
                    name=meta.name,
                    binary_name=meta.binary_name,
                    arch=meta.arch,
                    callee_count=meta.callee_count,
                    ast_size=meta.ast_size,
                    image_id=meta.image_id,
                ))
            hit_lists.append(hits)
        if self._registry is not None:
            self._registry.counter(
                "repro_serve_pool_queries_total",
                "Queries answered by the shard-parallel pool",
            ).inc(len(encodings))
            self._registry.histogram(
                "repro_serve_pool_sweep_seconds",
                "End-to-end pooled sweep+merge wall time per batch",
            ).observe(time.monotonic() - began)
        return hit_lists, n_rows, rel

    # -- swap --------------------------------------------------------------

    def swap_to(
        self, rel: str, store: Optional[EmbeddingStore] = None
    ) -> EmbeddingStore:
        """Atomically publish generation ``rel`` and pin it.

        Commit order matters: the ``CURRENT`` pointer flips on disk
        first (the ``serving.swap`` failpoint sits in that window -- a
        raise there aborts with the old generation still serving and
        the swaps counter untouched), then new queries are re-pinned.
        In-flight queries keep their old pin and complete untouched.
        Pass the already-open ``store`` (the ingest path just wrote it)
        to skip a redundant verify-on-open.
        """
        generations.commit_generation(self.index_root, rel)
        if store is None:
            store = EmbeddingStore.open(
                generations.active_root(self.index_root)
            )
        self.activate(rel, store)
        if self._registry is not None:
            self._registry.counter(
                "repro_index_swaps_total",
                "Hot index generation swaps completed",
            ).inc()
        _LOG.info(
            "hot-swapped index to generation %s (%d rows)",
            rel, store.n_flushed,
        )
        return store

    # -- lifecycle ---------------------------------------------------------

    def workers_info(self) -> List[dict]:
        return self.pool.workers_info()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.pool.close()
