"""Worker-pool execution of the CPU-bound extract stages.

Decompilation and preprocessing dominate a cold offline run and are pure
Python (no GEMMs), so they parallelise across processes.  Binaries
travel to workers pickled and come back as columnar
:class:`~repro.pipeline.stages.ExtractedBinary` artifacts.

The processes are supervised by
:class:`repro.utils.supervisor.SupervisedPool` (shared with the serve
pool; failpoint ``worker.task``, retries back off).  What is left here
is the stream: a bounded window of submissions in flight (so only the
window sits serialised and workers stay dynamically balanced), yielded
in input order.  Extraction is deterministic per binary, so a ``jobs=N``
run produces bit-for-bit the same artifacts, in the same order, as
``jobs=1``.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from typing import Iterator, List, Sequence

from repro.binformat.binary import BinaryFile
from repro.pipeline.stages import ExtractedBinary, extract_binary
from repro.utils.supervisor import (
    MAX_ATTEMPTS,
    SupervisedPool,
    WorkerCrashError,
    WorkerTaskError,
)

__all__ = [
    "WorkerCrashError",
    "WorkerTaskError",
    "extract_all",
    "extract_stream",
]


def _extract_setup(worker_id: int, min_ast_size: int):
    """Per-worker setup: the handler extracts one binary per task."""
    return functools.partial(extract_binary, min_ast_size=min_ast_size)


def extract_stream(
    binaries: Sequence[BinaryFile],
    min_ast_size: int,
    jobs: int = 1,
    registry=None,
    max_attempts: int = MAX_ATTEMPTS,
) -> Iterator[ExtractedBinary]:
    """Decompile + preprocess each binary, yielding results in input order.

    Streaming keeps only in-flight artifacts in memory: the consumer can
    encode-and-release each binary while workers extract the next ones.
    With ``jobs > 1`` the pool survives worker deaths (see
    :mod:`repro.utils.supervisor`); ``registry`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) receives restart/retry
    counters when given.
    """
    if jobs <= 1 or len(binaries) <= 1:
        for binary in binaries:
            yield extract_binary(binary, min_ast_size)
        return
    n_workers = min(int(jobs), len(binaries))
    pool = SupervisedPool(
        _extract_setup, (min_ast_size,), n_workers,
        name="extract", failpoint="worker.task",
        backoff=True,  # nobody waits on a clock: sit transient faults out
        restarts_metric="repro_worker_restarts_total",
        retries_metric="repro_worker_task_retries_total",
        registry=registry, max_attempts=max_attempts,
    )
    try:
        todo = iter(binaries)
        window = deque(
            pool.submit(binary)
            for binary in itertools.islice(todo, 2 * n_workers)
        )
        while window:
            extracted = window.popleft().result()
            window.extend(
                pool.submit(binary) for binary in itertools.islice(todo, 1)
            )
            yield extracted
    finally:
        pool.close()


def extract_all(
    binaries: Sequence[BinaryFile],
    min_ast_size: int,
    jobs: int = 1,
    registry=None,
) -> List[ExtractedBinary]:
    """Decompile + preprocess each binary, optionally across processes."""
    return list(
        extract_stream(binaries, min_ast_size, jobs=jobs, registry=registry)
    )
