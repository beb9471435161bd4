#!/usr/bin/env python3
"""Host-speed probe: how fast is this vCPU right now?

The sandbox host is shared: an identical pure-Python loop takes 0.33 s
or 0.47 s depending on what the neighbours do, the regime lasts tens of
seconds to minutes, and both vCPUs see it.  Raw wall-clock numbers of a
CPU-bound phase therefore move 10-20 % between runs of the same code.

This program is the reference computation the benchmark runs beside the
timed phase: pinned to one CPU at idle priority (``SCHED_IDLE``: it only
gets cycles nothing else wants, and any waking thread preempts it), it
repeats a fixed allocation-heavy chunk of work until ``SIGTERM`` and
then prints ``<chunks> <cpu seconds>``.  Chunks per CPU-second is the
host speed during the phase; :func:`harness.speed_corrected` uses it to
scale the CPU-bound part of each latency to :data:`REFERENCE_RATE`.

    python3 benchmarks/e2e/speed_probe.py <cpu>
"""

from __future__ import annotations

import os
import signal
import sys
import time

#: Chunks per CPU-second this probe reaches on the benchmark host when
#: the neighbours are quiet.  A fixed constant: it only sets the speed
#: the corrected numbers are quoted at.
REFERENCE_RATE = 225.0


def chunk() -> int:
    """Dict and tuple churn, like the decompiler and the JSON layer."""
    table = {}
    for i in range(20000):
        table[i] = (i, str(i))
    return len(table)


def main(argv) -> int:
    cpu = int(argv[1])
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (OSError, AttributeError):
        os.nice(19)  # the closest thing a restricted sandbox allows
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    chunks = 0
    began = time.process_time()
    while not stop:
        chunk()
        chunks += 1
    print(chunks, time.process_time() - began, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
