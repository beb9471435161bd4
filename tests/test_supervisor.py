"""The process supervisor, directly: toy handlers, no model, no store.

`repro.utils.supervisor.SupervisedPool` runs both process pools (the
extract pool and the sweep pool); their chaos suites exercise it through
real work.  Here its crash policy is pinned on handlers whose behaviour
the payload dictates, plus the architecture rule that keeps it the only
supervisor in the tree.
"""

from __future__ import annotations

import os
import re
import signal
import threading
import time
from concurrent.futures import TimeoutError as TaskTimeout
from pathlib import Path

import pytest

import repro
from repro.obs.metrics import MetricsRegistry
from repro.utils.supervisor import (
    PoolClosedError,
    SupervisedPool,
    WorkerCrashError,
    WorkerTaskError,
)


def _toy_setup(worker_id, tag):
    """Handler whose payload says what to do: ``(action, arg)``."""

    def handle(payload):
        action, arg = payload
        if action == "exit":
            os._exit(137)
        if action == "raise":
            raise ValueError(f"poisonous payload {arg}")
        if action == "sleep":
            time.sleep(arg)
        return tag, worker_id, arg

    return handle


def _pool(n_workers, backoff=False, registry=None):
    return SupervisedPool(
        _toy_setup, ("toy",), n_workers,
        name="toy", failpoint="test.supervisor", backoff=backoff,
        restarts_metric="repro_worker_restarts_total",
        retries_metric="repro_worker_task_retries_total",
        registry=registry,
    )


@pytest.fixture()
def pool():
    pool = _pool(2)
    yield pool
    pool.close()


def test_poison_and_raiser_fail_alone():
    # one task kills its worker on every attempt and one raises on every
    # attempt; the 40 that share their queues are charged nothing
    registry = MetricsRegistry()
    pool = _pool(3, backoff=True, registry=registry)
    try:
        payloads = [("ok", i) for i in range(42)]
        payloads[11], payloads[29] = ("exit", 11), ("raise", 29)
        tasks = [pool.submit(payload) for payload in payloads]
        for i, task in enumerate(tasks):
            if i == 11:
                with pytest.raises(WorkerCrashError, match="failed 3 time"):
                    task.result(timeout=30)
            elif i == 29:
                with pytest.raises(
                    WorkerTaskError, match="ValueError: poisonous payload 29"
                ):
                    task.result(timeout=30)
            else:
                assert task.result(timeout=30)[2] == i
        info = pool.workers_info()
        assert [w["worker"] for w in info] == [0, 1, 2]
        assert all(w["alive"] for w in info)
        assert registry.value("repro_worker_restarts_total") == 3
        # 2 per bad task
        assert registry.value("repro_worker_task_retries_total") == 4
    finally:
        pool.close()


def test_killed_worker_is_replaced_in_its_slot(pool):
    before = pool.workers_info()
    tasks = [pool.submit(("sleep", 0.2)) for _ in range(4)]
    os.kill(before[0]["pid"], signal.SIGKILL)
    assert [task.result(timeout=30)[2] for task in tasks] == [0.2] * 4
    after = pool.workers_info()
    assert [w["worker"] for w in after] == [0, 1]
    assert all(w["alive"] for w in after)
    assert after[0]["pid"] != before[0]["pid"]
    assert after[1]["pid"] == before[1]["pid"]


def test_submit_picks_the_least_loaded_worker(pool):
    slow = pool.submit(("sleep", 0.4))  # lands on worker 0
    # round-robin would queue every other task behind the slow one
    quick = [pool.submit(("ok", i)).result(timeout=0.5) for i in range(4)]
    assert [worker for _tag, worker, _arg in quick] == [1, 1, 1, 1]
    assert slow.result(timeout=30) == ("toy", 0, 0.4)


def test_timed_out_task_is_abandoned(pool):
    slow = [pool.submit(("sleep", 0.3)) for _ in range(2)]  # one per worker
    with pytest.raises(TaskTimeout):
        slow[0].result(timeout=0.05)
    # its late result is dropped, not handed to the next task in line
    assert pool.submit(("ok", "next")).result(timeout=30)[2] == "next"
    assert slow[1].result(timeout=30)[2] == 0.3


def test_close_fails_waiters_and_is_idempotent():
    pool = _pool(2)
    task = pool.submit(("sleep", 0.3))
    outcome = []

    def wait():
        try:
            task.result(timeout=30)
        except PoolClosedError as exc:
            outcome.append(exc)

    waiter = threading.Thread(target=wait, daemon=True)
    waiter.start()
    pids = [w["pid"] for w in pool.workers_info()]
    pool.close()
    pool.close()
    waiter.join(timeout=10)
    assert len(outcome) == 1
    with pytest.raises(PoolClosedError):
        pool.submit(("ok", 0))
    for pid in pids:
        with pytest.raises(OSError):
            os.kill(pid, 0)  # ESRCH: no child left behind


def test_idle_close_does_not_wait_for_a_poll_period():
    # a per-run pool pays close() on every run: the collector must be
    # woken, not left to notice at its next poll (best of 3: CI noise)
    elapsed = []
    for _ in range(3):
        pool = _pool(2)
        assert pool.submit(("ok", 0)).result(timeout=30)  # workers are up
        began = time.monotonic()
        pool.close()
        elapsed.append(time.monotonic() - began)
    assert min(elapsed) < 0.05, elapsed


def test_no_backoff_retries_at_once(pool):
    assert pool.submit(("ok", 0)).result(timeout=30)  # workers are up
    began = time.monotonic()
    with pytest.raises(WorkerTaskError, match="failed 3 time"):
        pool.submit(("raise", 0)).result(timeout=30)
    assert time.monotonic() - began < 0.05


def test_supervision_lives_in_one_module():
    """A third pool cannot be added by copy: only the supervisor imports
    ``multiprocessing``, and neither pool polls, reaps or kills a child."""
    src = Path(repro.__file__).parent
    importers = sorted(
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if re.search(r"^\s*(import|from)\s+multiprocessing\b",
                     path.read_text(encoding="utf-8"), re.MULTILINE)
    )
    assert importers == [os.path.join("utils", "supervisor.py")]
    liveness = re.compile(r"is_alive|exitcode|\.terminate\(\)")
    offenders = [
        f"{path.relative_to(src)}:{number}"
        for package in ("pipeline", "serving")
        for path in sorted((src / package).rglob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        )
        if liveness.search(line)
    ]
    assert offenders == []
