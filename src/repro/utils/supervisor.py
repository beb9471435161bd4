"""One supervisor for pools of forked worker processes.

Both process pools of this repo -- the per-run extract pool
(:mod:`repro.pipeline.workers`) and the sweep pool that only the
benchmark's ``serving.pool_*`` layer runs (:mod:`repro.serving.pool`;
the engine sweeps in process) -- are a :class:`SupervisedPool`: a fixed
number of worker *slots*, each a child process that runs
``setup(worker_id, *setup_args)`` once and then the returned
``handle(payload)`` once per task.  This module is the only place that
imports ``multiprocessing``, watches liveness, reaps or respawns a child.

**Deep queues, exact bookkeeping.**  :meth:`SupervisedPool.submit` pushes
the task straight onto the least-loaded worker's queue (a sweep task is
shorter than a parent round trip, so a worker must never wait for the
parent to hand it the next one) and records ``task -> worker`` in the
parent.  Results come back over one pipe per worker, written
synchronously by the child: whatever a worker finished has reached the
parent's end of the pipe before the worker can start -- and die on --
its next task, so the parent knows exactly what a dead worker held.

**Crash policy.**  A worker that dies (OOM kill, segfault, a kill-mode
failpoint) is noticed through its process sentinel, its pipe is drained
and a replacement started *in its slot*.  Workers run their queue in
order, so the death is charged to the oldest task the worker held --
the one it was running -- and the rest are requeued uncharged: sharing
a queue with a poisonous task costs an innocent one nothing.  A task
that raises is reported, not fatal to the worker, and charged the same
way.  A task charged ``max_attempts`` times fails its waiter with
:class:`WorkerCrashError` (its workers died) or :class:`WorkerTaskError`
(it raised): a poisonous input ends in a diagnosis, not a crash loop.

**The one policy that differs between callers** is ``backoff``: the
extract pool waits out :func:`_backoff_delay` before a retry (nobody is
waiting on a clock); the sweep pool retries at once, because its
caller may hold a deadline and a poisonous sweep must fail promptly,
not time out.  It is a constructor argument set by those two call
sites, never by users.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import random
import selectors
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Tuple

import repro.faults as faults
from repro.utils.logging import get_logger

_LOG = get_logger("utils.supervisor")

__all__ = [
    "MAX_ATTEMPTS",
    "PoolClosedError",
    "SupervisedPool",
    "Task",
    "WorkerCrashError",
    "WorkerTaskError",
]

#: Per-task attempt budget (first try + retries after crashes or raises).
MAX_ATTEMPTS = 3


def _backoff_delay(failures: int, rng=random) -> float:
    """Seconds to wait before retrying a task charged ``failures`` times:
    50 ms doubling per failure, capped at 2 s, less up to half of it as
    jitter, so workers retrying one stalled resource do not thunder back
    in lockstep."""
    cap = min(0.05 * 2.0 ** (failures - 1), 2.0)
    return cap * (1.0 - 0.5 * rng.random())


class WorkerCrashError(RuntimeError):
    """A task's worker died ``max_attempts`` times; the input is presumed
    to crash the handler (or the host is killing workers faster than the
    pool can make progress)."""


class WorkerTaskError(RuntimeError):
    """A task raised in the worker ``max_attempts`` times."""


class PoolClosedError(RuntimeError):
    """The pool was closed before the task finished (or was submitted)."""


def _worker_main(worker_id, setup, setup_args, failpoint, tasks, results):
    """Child loop: one task at a time, in queue order, until ``None``."""
    handle = setup(worker_id, *setup_args)
    while True:
        item = tasks.get()
        if item is None:
            return
        task_id, payload, delay = item
        time.sleep(delay)  # a retry backing off (0 on a first attempt)
        try:
            # chaos hook: a kill-mode failpoint here is an OOM-killed
            # worker mid-task; raise-mode is a transient task fault
            faults.inject(failpoint)
            message = (task_id, True, handle(payload))
        except BaseException as exc:  # noqa: BLE001 -- report, don't die
            message = (task_id, False, f"{type(exc).__name__}: {exc}")
        # synchronous: in the parent's pipe before the next task starts
        results.send(message)


class Task(Future):
    """One submitted payload.  ``result(timeout)`` returns the handler's
    value or raises :class:`WorkerCrashError` / :class:`WorkerTaskError`
    (attempt budget spent), :class:`PoolClosedError` (the pool closed
    first) or ``concurrent.futures.TimeoutError`` (the builtin from
    Python 3.11 on; a result that still arrives finds no waiter)."""

    def __init__(self, task_id: int, payload: Any):
        super().__init__()
        self.task_id = task_id
        self.payload = payload
        self.attempts = 0  # failures charged to this task so far


@dataclass(eq=False)
class _Worker:
    """One slot: the child, its task queue, its result pipe, and the ids
    of the tasks queued on it, oldest (= the one running) first."""

    slot: int
    process: Any
    tasks: Any
    results: Any
    held: Deque[int] = field(default_factory=deque)

    def reap(self, timeout: float) -> None:
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        # a dead child never drains its queue: don't wait on it at exit
        self.tasks.cancel_join_thread()
        self.tasks.close()
        self.results.close()


class SupervisedPool:
    """Fixed-size pool of supervised, replaceable worker processes.

    ``setup`` must be a module-level function (a spawn/forkserver
    context pickles it by name); it runs once per child and returns the
    task handler.  Thread-safe: any number of threads may
    :meth:`submit` and wait concurrently; one background collector
    thread routes results to waiters and replaces dead workers.
    """

    def __init__(
        self,
        setup: Callable[..., Callable[[Any], Any]],
        setup_args: Tuple,
        n_workers: int,
        *,
        name: str,
        failpoint: str,
        backoff: bool,
        restarts_metric: Tuple[str, str],  # (metric name, help text)
        retries_metric: Tuple[str, str],
        registry=None,
        max_attempts: int = MAX_ATTEMPTS,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._ctx = multiprocessing.get_context()
        self._child_args = (setup, tuple(setup_args), failpoint)
        self._name = name
        self._backoff = backoff
        self._restarts_metric = restarts_metric
        self._retries_metric = retries_metric
        self._registry = registry
        self._max_attempts = max_attempts
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._tasks: Dict[int, Task] = {}  # unfinished
        self._closed = False
        #: the collector's wait set: every worker's result pipe and
        #: process sentinel, each keyed to its worker
        self._selector = selectors.DefaultSelector()
        self.n_workers = n_workers
        self._workers = [self._spawn(slot) for slot in range(n_workers)]
        self._collector = threading.Thread(
            target=self._collect, name=f"{name}-pool-collector", daemon=True
        )
        self._collector.start()
        # a pool the owner forgot to close must not leak children past
        # interpreter exit; close() takes the hook back out
        atexit.register(self.close)

    # -- accounting --------------------------------------------------------

    def workers_info(self) -> List[Dict]:
        """Per-slot liveness snapshot (``/healthz``, stats)."""
        with self._lock:
            return [
                {"worker": w.slot, "pid": w.process.pid,
                 "alive": w.process.is_alive()}
                for w in self._workers
            ]

    def _count(self, metric: Tuple[str, str], n=1, **labels) -> None:
        if self._registry is not None:
            self._registry.counter(*metric, **labels).inc(n)

    # -- dispatch (callers hold the lock) ----------------------------------

    def _spawn(self, slot: int) -> _Worker:
        tasks = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(slot, *self._child_args, tasks, writer),
            daemon=True,
        )
        process.start()
        writer.close()  # the child's copy is the only write end left
        worker = _Worker(slot, process, tasks, reader)
        for waitable in (reader, process.sentinel):
            self._selector.register(waitable, selectors.EVENT_READ, worker)
        return worker

    def _dispatch(self, task: Task, delay: float = 0.0) -> None:
        worker = min(self._workers, key=lambda w: len(w.held))
        worker.held.append(task.task_id)
        worker.tasks.put((task.task_id, task.payload, delay))

    def submit(self, payload: Any) -> Task:
        """Queue ``payload`` on the least-loaded worker."""
        with self._lock:
            if self._closed:
                raise PoolClosedError("pool is closed")
            task = Task(next(self._ids), payload)
            self._tasks[task.task_id] = task
            self._dispatch(task)
        return task

    def _retry_or_fail(self, task: Task, reason: str, error_type) -> None:
        """Charge ``task`` one failed attempt; retry it or fail its waiter."""
        task.attempts += 1
        if task.attempts >= self._max_attempts:
            del self._tasks[task.task_id]
            task.set_exception(error_type(
                f"task {task.task_id} failed {task.attempts} time(s); "
                f"last: {reason}"
            ))
            return
        # waited out by the worker that picks it up
        delay = _backoff_delay(task.attempts) if self._backoff else 0.0
        self._count(self._retries_metric)
        _LOG.warning(
            "%s task %d failed (attempt %d/%d): %s; retrying in %.0fms",
            self._name, task.task_id, task.attempts, self._max_attempts,
            reason, delay * 1000,
        )
        self._dispatch(task, delay)

    # -- collector ---------------------------------------------------------

    def _collect(self) -> None:
        while True:
            ready = self._selector.select()
            with self._lock:
                if self._closed:
                    return  # close() stopped the workers: not crashes
                for key, _events in ready:
                    worker = key.data
                    if worker is not self._workers[worker.slot]:
                        continue  # replaced just now, on its other waitable
                    if key.fileobj is worker.results and self._receive(worker):
                        continue
                    if not self._replace(worker):  # sentinel or EOF: dead
                        return

    def _receive(self, worker: _Worker) -> bool:
        """Route one result from ``worker``; False at EOF (child gone)."""
        try:
            task_id, ok, value = worker.results.recv()
        except (EOFError, OSError):
            return False
        worker.held.remove(task_id)
        if ok:
            self._tasks.pop(task_id).set_result(value)
        else:
            self._retry_or_fail(self._tasks[task_id], value, WorkerTaskError)
        return True

    def _replace(self, worker: _Worker) -> bool:
        """Respawn dead ``worker`` in its slot and requeue what it held.

        False at interpreter shutdown: worker deaths then are the
        process group being torn down, and a respawned child would
        outlive the parent as an orphan holding its pipes open.
        """
        if not threading.main_thread().is_alive():
            return False
        for waitable in (worker.results, worker.process.sentinel):
            self._selector.unregister(waitable)
        while worker.results.poll(0) and self._receive(worker):
            pass  # what it finished before dying is not lost
        worker.reap(timeout=0.1)
        exitcode = worker.process.exitcode
        self._count(self._restarts_metric)
        _LOG.warning(
            "%s worker %d died (exit %s); replacing it",
            self._name, worker.slot, exitcode,
        )
        self._workers[worker.slot] = self._spawn(worker.slot)
        # workers run their queue in order: the oldest held task is the
        # one that was running, the rest never started
        for position, task_id in enumerate(worker.held):
            if position == 0:
                self._retry_or_fail(
                    self._tasks[task_id],
                    f"worker died with exit code {exitcode}",
                    WorkerCrashError,
                )
            else:
                self._dispatch(self._tasks[task_id])
        return True

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Stop the workers and fail unfinished waiters.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            unfinished = list(self._tasks.values())
            self._tasks.clear()
        atexit.unregister(self.close)
        for task in unfinished:
            task.set_exception(PoolClosedError("pool closed"))
        for worker in self._workers:
            worker.tasks.put(None)
        for worker in self._workers:
            worker.reap(timeout=1.0)
        # the first exiting child woke the collector, which saw _closed
        self._collector.join(timeout=2.0)
        self._selector.close()
