"""Supervised multi-process sweep pool for shard-parallel serving.

One query's corpus sweep is a GEMM over every flushed row; a single
process serializes concurrent queries behind the engine lock.  The pool
splits the corpus into disjoint shard-aligned row ranges and hands each
range to a separate worker process.  Workers mmap-open the store
read-only -- PR 5's float32 shards make the vector bytes shareable
across processes for free (one page-cache copy) -- and sweep their
range with the exact :class:`~repro.index.ann.BruteForceIndex` scorers,
returning per-query ``(rows, scores)`` partials for the coordinator to
merge with :func:`~repro.index.ann.select_top_k`.

Supervision follows ``pipeline/workers.py``: the parent tracks exactly
which tasks each worker holds, polls liveness while waiting on results,
and on a worker death (OOM kill, segfault, a ``serving.worker`` kill
failpoint) respawns the slot and re-dispatches its in-flight tasks to
the replacement.  A task that fails ``max_attempts`` times surfaces as
:class:`SweepError` instead of hanging the query.

Workers cache open stores by root path (bounded LRU), so a generation
swap simply starts naming a different root in task payloads: the first
sweep against the new generation opens it, the old one ages out.
"""

from __future__ import annotations

import atexit
import multiprocessing
import queue as queue_mod
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.faults as faults
from repro.core.model import Asteria, AsteriaConfig, FunctionEncoding
from repro.index.ann import BruteForceIndex, select_top_k
from repro.index.store import EmbeddingStore
from repro.utils.logging import get_logger

_LOG = get_logger("serving.pool")

__all__ = ["ShardWorkerPool", "SweepError", "MAX_ATTEMPTS"]

#: Per-task attempt budget across worker crashes and task faults.
MAX_ATTEMPTS = 3
#: Liveness-poll period while the collector waits on results.
_POLL_S = 0.1
#: Stores a worker keeps open at once (old + new generation during a
#: swap; anything older has aged out of the query stream).
_STORE_CACHE_MAX = 2

#: One sweep partial per query: global store rows and their scores.
Partial = Tuple[np.ndarray, np.ndarray]


class SweepError(RuntimeError):
    """A sweep task failed ``max_attempts`` times (crash or exception)."""


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _open_corpus(cache: "OrderedDict", root: str):
    """Worker-side store open with a tiny LRU over generations.

    ``verify=False``: the coordinator verified checksums when it opened
    the generation; re-hashing every shard per worker would turn each
    swap into an O(corpus) stall.
    """
    entry = cache.get(root)
    if entry is None:
        store = EmbeddingStore.open(root, verify=False)
        entry = (store.vectors().snapshot(), store.callee_counts())
        cache[root] = entry
        while len(cache) > _STORE_CACHE_MAX:
            cache.popitem(last=False)
    else:
        cache.move_to_end(root)
    return entry


def _worker_main(worker_id, model_meta, model_state,
                 task_queue, result_queue) -> None:
    """Worker loop: sweep one shard range per task until the sentinel.

    Only the Siamese head is needed for scoring, so the model is
    reconstructed from its config + head state without encoder weights.
    """
    model = Asteria(AsteriaConfig(**model_meta))
    model.siamese.load_state_dict(model_state)
    cache: "OrderedDict" = OrderedDict()
    while True:
        item = task_queue.get()
        if item is None:
            return
        task_id, payload = item
        try:
            # chaos hook: kill-mode is an OOM-killed worker mid-sweep,
            # raise-mode a transient sweep fault the pool must retry
            faults.inject("serving.worker")
            (root, start, stop, q_vectors, q_counts,
             k, threshold, calibrate, cand_lists) = payload
            began = time.monotonic()
            vectors, counts = _open_corpus(cache, root)
            sub = vectors.slice_rows(start, stop)
            index = BruteForceIndex(
                model, sub,
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
            partials: List[Partial] = []
            if cand_lists is None:
                for neighbors in index.top_k_batch(
                    queries, k=k, threshold=threshold
                ):
                    rows = np.array(
                        [n.row for n in neighbors], dtype=np.int64
                    ) + start
                    scores = np.array(
                        [n.score for n in neighbors], dtype=np.float64
                    )
                    partials.append((rows, scores))
            else:
                # tiered-index rerank: score only each query's candidate
                # rows that fall in this range.  Each score is one
                # independent per-row dot product through the Siamese
                # head, so slicing the candidate set across workers
                # cannot change any row's score; ties are broken by
                # *global* row id so the coordinator's select_top_k
                # merge stays bit-for-bit with the single-process path.
                for i, query in enumerate(queries):
                    cand = np.asarray(cand_lists[i], dtype=np.int64)
                    local = cand[(cand >= start) & (cand < stop)]
                    if local.size == 0:
                        partials.append((
                            np.zeros(0, dtype=np.int64), np.zeros(0)
                        ))
                        continue
                    scores = index.score_matrix([query], local - start)[0]
                    if threshold is not None:
                        keep = scores >= threshold
                        local, scores = local[keep], scores[keep]
                    top = select_top_k(scores, local, k)
                    partials.append((
                        local[top],
                        np.asarray(scores[top], dtype=np.float64),
                    ))
            sweep_s = time.monotonic() - began
            result_queue.put(
                (task_id, "ok", (worker_id, sweep_s, partials))
            )
        except BaseException as exc:  # noqa: BLE001 -- report, don't die
            result_queue.put(
                (task_id, "error", f"{type(exc).__name__}: {exc}")
            )


# ---------------------------------------------------------------------------
# parent-side bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class _PendingTask:
    payload: tuple
    worker_id: int
    attempts: int = 1
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[Tuple[int, float, List[Partial]]] = None
    error: Optional[str] = None

    def finish_ok(self, value) -> None:
        self.result = value
        self.done.set()

    def finish_error(self, message: str) -> None:
        self.error = message
        self.done.set()


class _PoolWorker:
    """One sweep process plus its task queue (may hold several tasks)."""

    __slots__ = ("worker_id", "process", "queue")

    @classmethod
    def spawn(cls, ctx, worker_id, model_payload, result_queue):
        worker = cls.__new__(cls)
        worker.worker_id = worker_id
        worker.queue = ctx.Queue()
        meta, state = model_payload
        worker.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, meta, state, worker.queue, result_queue),
            daemon=True,
        )
        worker.process.start()
        return worker

    def stop(self) -> None:
        try:
            self.queue.put(None)
        except (OSError, ValueError):
            pass

    def reap(self, timeout: float = 1.0) -> None:
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        self.queue.close()


class ShardWorkerPool:
    """Fixed-size supervised pool of shard-sweep workers.

    Thread-safe: any number of server threads may call :meth:`sweep`
    concurrently; tasks from different sweeps interleave freely on the
    workers.  A background collector thread routes results to waiters
    and replaces dead workers.
    """

    def __init__(
        self,
        model: Asteria,
        n_workers: int,
        registry=None,
        max_attempts: int = MAX_ATTEMPTS,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._ctx = multiprocessing.get_context()
        self._model_payload = (
            asdict(model.config), model.siamese.state_dict()
        )
        self._registry = registry
        self._max_attempts = max_attempts
        self._results = self._ctx.Queue()
        self._lock = threading.Lock()
        self._pending: Dict[int, _PendingTask] = {}
        self._next_task_id = 0
        self._rr = 0
        self._closed = False
        self._workers = [
            _PoolWorker.spawn(self._ctx, i, self._model_payload,
                              self._results)
            for i in range(n_workers)
        ]
        self._collector = threading.Thread(
            target=self._collect_loop, name="serve-pool-collector",
            daemon=True,
        )
        self._collector.start()
        # a pool the owner forgot to close must not leak children past
        # interpreter exit (close is idempotent, so double-close is fine)
        atexit.register(self.close)

    # -- accounting --------------------------------------------------------

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    def workers_info(self) -> List[Dict]:
        """Liveness snapshot for /healthz and stats."""
        with self._lock:
            return [
                {
                    "worker": w.worker_id,
                    "pid": w.process.pid,
                    "alive": bool(w.process.is_alive()),
                }
                for w in self._workers
            ]

    def _count(self, name: str, help_text: str, n: float = 1,
               **labels) -> None:
        if self._registry is not None:
            self._registry.counter(name, help_text, **labels).inc(n)

    def _observe(self, name: str, help_text: str, value: float,
                 **labels) -> None:
        if self._registry is not None:
            self._registry.histogram(name, help_text, **labels).observe(value)

    # -- collector ---------------------------------------------------------

    def _collect_loop(self) -> None:
        while not self._closed:
            try:
                got = self._results.get(timeout=_POLL_S)
            except queue_mod.Empty:
                self._check_liveness()
                continue
            except (OSError, ValueError):
                return  # queue closed under us during shutdown
            task_id, status, value = got
            with self._lock:
                task = self._pending.get(task_id)
                if task is None or task.done.is_set():
                    continue  # duplicate from a replaced worker
                if status == "ok":
                    worker_id, sweep_s, partials = value
                    self._pending.pop(task_id, None)
                    n_queries = len(partials)
                    task.finish_ok(value)
                else:
                    self._retry_or_fail(task_id, task, value)
                    continue
            self._count(
                "repro_serve_worker_queries_total",
                "Query sweeps completed per serve-pool worker",
                n=n_queries, worker=worker_id,
            )
            self._observe(
                "repro_serve_worker_sweep_seconds",
                "Per-task shard-range sweep wall time",
                sweep_s, worker=worker_id,
            )

    def _retry_or_fail(self, task_id: int, task: _PendingTask,
                       reason: str) -> None:
        """Re-dispatch a failed task (caller holds the lock)."""
        if task.attempts >= self._max_attempts:
            self._pending.pop(task_id, None)
            task.finish_error(
                f"sweep task failed {task.attempts} time(s); last: {reason}"
            )
            return
        task.attempts += 1
        next_slot = (task.worker_id + 1) % len(self._workers)
        task.worker_id = next_slot
        self._count(
            "repro_serve_task_retries_total",
            "Sweep tasks re-dispatched after a worker fault",
        )
        _LOG.warning(
            "sweep task %d failed (attempt %d/%d): %s; re-dispatching "
            "to worker %d",
            task_id, task.attempts, self._max_attempts, reason, next_slot,
        )
        try:
            self._workers[next_slot].queue.put((task_id, task.payload))
        except (OSError, ValueError):
            self._pending.pop(task_id, None)
            task.finish_error(f"pool closing; last: {reason}")

    def _check_liveness(self) -> None:
        if not threading.main_thread().is_alive():
            # interpreter shutdown: worker deaths here are the process
            # group being torn down, and a respawned child would outlive
            # the parent as an orphan holding its pipes open
            return
        with self._lock:
            if self._closed:
                return
            for i, worker in enumerate(self._workers):
                if worker.process.is_alive():
                    continue
                exitcode = worker.process.exitcode
                worker.reap(timeout=0.1)
                self._count(
                    "repro_serve_worker_restarts_total",
                    "Serve-pool workers replaced after dying mid-sweep",
                )
                _LOG.warning(
                    "serve worker %d died (exit %s); replacing it",
                    worker.worker_id, exitcode,
                )
                self._workers[i] = _PoolWorker.spawn(
                    self._ctx, worker.worker_id, self._model_payload,
                    self._results,
                )
                # the dead child took its queued tasks with it
                lost = [
                    (tid, t) for tid, t in self._pending.items()
                    if t.worker_id == worker.worker_id
                    and not t.done.is_set()
                ]
                for tid, task in lost:
                    self._retry_or_fail(
                        tid, task,
                        f"worker died with exit code {exitcode}",
                    )

    # -- dispatch ----------------------------------------------------------

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
        candidates: Optional[Sequence[np.ndarray]] = None,
    ) -> List[List[Partial]]:
        """Sweep every range concurrently; partials in range order.

        ``candidates`` (one global-row array per query, from a tiered
        ANN backend) restricts every worker to its range's slice of
        those rows instead of a full range sweep.

        Returns one ``List[Partial]`` per range (one partial per query).
        Raises :class:`SweepError` on exhausted retries or timeout.
        """
        if not ranges:
            return []
        if candidates is not None:
            candidates = [
                np.asarray(rows, dtype=np.int64) for rows in candidates
            ]
        tasks: List[Tuple[int, _PendingTask]] = []
        with self._lock:
            if self._closed:
                raise SweepError("pool is closed")
            base = self._rr
            self._rr = (self._rr + len(ranges)) % len(self._workers)
            for j, (start, stop) in enumerate(ranges):
                slot = (base + j) % len(self._workers)
                payload = (store_root, int(start), int(stop),
                           q_vectors, q_counts, k, threshold, calibrate,
                           candidates)
                task_id = self._next_task_id
                self._next_task_id += 1
                task = _PendingTask(payload=payload, worker_id=slot)
                self._pending[task_id] = task
                tasks.append((task_id, task))
            for task_id, task in tasks:
                try:
                    self._workers[task.worker_id].queue.put(
                        (task_id, task.payload)
                    )
                except (OSError, ValueError):
                    self._pending.pop(task_id, None)
                    task.finish_error("pool closing")
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        out: List[List[Partial]] = []
        for task_id, task in tasks:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            if not task.done.wait(timeout=remaining):
                with self._lock:
                    self._pending.pop(task_id, None)
                raise SweepError(
                    f"sweep task {task_id} timed out after {timeout_s}s"
                )
            if task.error is not None:
                raise SweepError(task.error)
            _, _, partials = task.result
            out.append(partials)
        return out

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop workers and fail any in-flight sweeps.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        for task in pending:
            if not task.done.is_set():
                task.finish_error("pool closed")
        for worker in self._workers:
            worker.stop()
        for worker in self._workers:
            worker.reap()
        if self._collector.is_alive():
            self._collector.join(timeout=2.0)
        try:
            self._results.close()
        except (OSError, ValueError):
            pass
