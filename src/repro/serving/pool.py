"""Multi-process sweep pool for shard-parallel exact sweeps.

The engine does not use it (every query sweeps in process); the e2e
benchmark's ``serving.pool_*`` layer times it against that sweep.
The pool splits the corpus into disjoint shard-aligned row ranges and
hands each range to a separate worker process, so concurrent exact
sweeps run on as many cores as there are workers.  Workers mmap-open the
store read-only -- the float32 shards make the vector bytes shareable
across processes for free (one page-cache copy) -- and answer their
range with the very ring sweep the single-process path runs
(:meth:`~repro.index.ann.AnnIndex.top_k_batch` on a
:class:`~repro.index.ann.BruteForceIndex`), returning per-query
``(rows, scores)`` partials for the coordinator to merge with
:func:`~repro.index.ann.select_top_k`.

The processes are supervised by
:class:`repro.utils.supervisor.SupervisedPool` (shared with the extract
pool; failpoint ``serving.worker``).  What is left here is the sweep
handler and :meth:`ShardWorkerPool.sweep`: range fan-out, the request
deadline, per-worker metrics and error translation.

Workers cache open stores by root path (bounded LRU): the first sweep
naming a root opens it, and a root no task names any more ages out.
Each cached store keeps the range indexes built over it, so a range
pays its callee-count sort once per root, not once per task.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from concurrent.futures import TimeoutError as TaskTimeout
from dataclasses import asdict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import Asteria, AsteriaConfig, FunctionEncoding
from repro.index.ann import BruteForceIndex
from repro.index.store import EmbeddingStore
from repro.utils.supervisor import (
    PoolClosedError,
    SupervisedPool,
    WorkerCrashError,
    WorkerTaskError,
)

__all__ = ["ShardWorkerPool", "SweepError", "SweepTimeout"]

#: Stores a worker keeps open at once (least recently swept evicted).
_STORE_CACHE_MAX = 2

#: One sweep partial per query: global store rows and their scores.
Partial = Tuple[np.ndarray, np.ndarray]


class SweepError(RuntimeError):
    """A sweep task failed ``max_attempts`` times (crash or exception)."""


class SweepTimeout(SweepError):
    """A sweep did not finish within its caller's deadline."""


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _open_corpus(cache: "OrderedDict", root: str):
    """Worker-side store open with a tiny LRU over roots:
    ``(vectors, callee counts, range indexes by (start, stop,
    calibrate))``, the indexes aging out with their root.

    ``verify=False``: the caller verified checksums when it opened the
    store; re-hashing every shard per worker would be an O(corpus)
    stall per worker.
    """
    entry = cache.get(root)
    if entry is None:
        store = EmbeddingStore.open(root, verify=False)
        entry = (store.vectors().snapshot(), store.callee_counts(), {})
        cache[root] = entry
        while len(cache) > _STORE_CACHE_MAX:
            cache.popitem(last=False)
    else:
        cache.move_to_end(root)
    return entry


def _sweep_setup(worker_id: int, model_meta: dict, model_state: dict):
    """Per-worker setup: the handler answers one shard range per task.

    Only the Siamese head is needed for scoring, so the model is
    reconstructed from its config + head state without encoder weights.
    """
    model = Asteria(AsteriaConfig(**model_meta))
    model.siamese.load_state_dict(model_state)
    cache: "OrderedDict" = OrderedDict()

    def sweep(payload) -> Tuple[int, float, List[Partial]]:
        (root, start, stop, q_vectors, q_counts,
         k, threshold, calibrate) = payload
        began = time.monotonic()
        vectors, counts, indexes = _open_corpus(cache, root)
        index = indexes.get((start, stop, calibrate))
        if index is None:
            index = indexes[start, stop, calibrate] = BruteForceIndex(
                model, vectors.slice_rows(start, stop),
                counts[start:stop] if calibrate else None,
                calibrate=calibrate,
            )
        queries = [
            FunctionEncoding(
                name=f"q{i}", arch="", binary_name="",
                vector=q_vectors[i], callee_count=int(q_counts[i]),
            )
            for i in range(len(q_vectors))
        ]
        # local row order is global row order, so ties break -- and the
        # coordinator's merge stays -- bit-for-bit with one process
        partials = [
            (
                np.array([n.row for n in neighbors], dtype=np.int64) + start,
                np.array([n.score for n in neighbors], dtype=np.float64),
            )
            for neighbors in index.top_k_batch(
                queries, k=k, threshold=threshold
            )
        ]
        return worker_id, time.monotonic() - began, partials

    return sweep


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class ShardWorkerPool(SupervisedPool):
    """Fixed-size supervised pool of shard-sweep workers.

    Thread-safe: any number of server threads may call :meth:`sweep`
    concurrently; tasks from different sweeps interleave freely on the
    workers.
    """

    def __init__(
        self,
        model: Asteria,
        n_workers: int,
        registry=None,
    ):
        super().__init__(
            _sweep_setup,
            (asdict(model.config), model.siamese.state_dict()),
            n_workers,
            name="serve", failpoint="serving.worker",
            backoff=False,  # the caller holds a deadline: fail promptly
            restarts_metric="repro_serve_worker_restarts_total",
            retries_metric="repro_serve_task_retries_total",
            registry=registry,
        )

    def sweep(
        self,
        store_root: str,
        ranges: Sequence[Tuple[int, int]],
        q_vectors: np.ndarray,
        q_counts: np.ndarray,
        k: Optional[int],
        threshold: Optional[float],
        calibrate: bool,
        timeout_s: Optional[float] = None,
    ) -> List[List[Partial]]:
        """Sweep every range concurrently; partials in range order.

        Returns one ``List[Partial]`` per range (one partial per query).
        Raises :class:`SweepTimeout` past ``timeout_s`` and
        :class:`SweepError` on exhausted retries or a closed pool.
        """
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        out: List[List[Partial]] = []
        try:
            tasks = [
                self.submit((
                    store_root, int(start), int(stop), q_vectors, q_counts,
                    k, threshold, calibrate,
                ))
                for start, stop in ranges
            ]
            for task in tasks:
                remaining = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                worker_id, sweep_s, partials = task.result(remaining)
                # recorded by the waiter, before sweep() returns, so a
                # shutdown snapshot taken after the last query has them
                self._count(
                    "repro_serve_worker_queries_total",
                    n=len(partials), worker=worker_id,
                )
                if self._registry is not None:
                    self._registry.histogram(
                        "repro_serve_worker_sweep_seconds", worker=worker_id
                    ).observe(sweep_s)
                out.append(partials)
        except TaskTimeout as exc:
            raise SweepTimeout(
                f"sweep timed out after {timeout_s}s"
            ) from exc
        except (WorkerCrashError, WorkerTaskError, PoolClosedError) as exc:
            raise SweepError(f"sweep {exc}") from exc
        return out
