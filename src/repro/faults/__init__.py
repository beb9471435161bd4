"""Named failpoints: deterministic fault injection for chaos testing.

Production code marks its crash-critical moments with
``faults.inject("store.flush.pre_rename")``.  When no failpoint is
active -- the normal case -- :func:`inject` is a single module-flag
check and returns immediately; activating failpoints (via
``EngineConfig.faults``, the ``REPRO_FAULTS`` environment variable, or
:func:`configure` / :func:`activate` directly) arms them process-wide so
chaos tests can raise, delay, or kill the process at exactly the moment
a real fault would strike.

Spec syntax (comma- or semicolon-separated failpoints)::

    <name>=<mode>[:<arg>][@<skip>][*<times>]

    store.flush.pre_rename=kill          kill the process at every hit
    store.flush.pre_manifest=kill@2      skip 1 hit, kill on the 2nd
    cache.put.pre_rename=raise*1         raise FaultInjected once
    server.request=delay:250             sleep 250 ms per hit

Modes:

* ``raise`` -- raise :class:`FaultInjected` (a recoverable error a
  caller may or may not survive -- that is the point of the test);
* ``delay:<ms>`` -- sleep, simulating a stall (slow disk, GC pause);
* ``kill`` -- ``os._exit(KILL_EXIT_CODE)``: instant process death with
  no atexit handlers, no buffer flush, no cleanup -- the closest a test
  can get to ``kill -9`` / an OOM kill from inside.

``@skip`` ignores the first *skip* hits; ``*times`` fires at most
*times* times.  Both counters are per-process -- except when a **state
directory** is set (``REPRO_FAULTS_STATE`` or ``configure(...,
state_dir=...)``): then each firing must claim a ticket file created
with ``O_EXCL``, so ``*times`` is enforced *across* processes.  That is
how a chaos test kills exactly one pipeline worker out of a pool: every
forked worker inherits the armed failpoint, but only one can claim the
single ticket.

Failpoint state is process-global by design (faults are); it is
inherited by forked worker processes and re-read from ``REPRO_FAULTS``
on import, so spawned subprocesses arm themselves too.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

__all__ = [
    "FaultInjected",
    "KILL_EXIT_CODE",
    "FAILPOINTS",
    "activate",
    "clear",
    "configure",
    "fired_counts",
    "inject",
    "is_active",
    "parse_spec",
]

#: Exit status of a ``kill``-mode failpoint (128 + SIGKILL, the status a
#: genuinely OOM-killed process reports).
KILL_EXIT_CODE = 137

#: The failpoints production code declares, for discoverability (a spec
#: may also name points not listed here -- e.g. ones local to a test).
FAILPOINTS = (
    "store.flush.pre_rename",    # shard files written, not yet visible
    "store.flush.pre_manifest",  # shards renamed, manifest still old
    "store.manifest.pre_rename", # new manifest written to tmp only
    "ann.persist.pre_rename",    # ANN state written to tmp only
    "ann.build",                 # ANN backend construction
    "cache.put.pre_rename",      # cache object written to tmp only
    "worker.task",               # pipeline worker, start of one task
    "server.request",            # HTTP handler, after admission
    "serving.worker",            # serve-pool worker, start of one sweep
    "serving.swap",              # generation swap, CURRENT written to tmp only
)

_MODES = ("raise", "delay", "kill")


class FaultInjected(RuntimeError):
    """Raised by a ``raise``-mode failpoint."""

    def __init__(self, name: str):
        super().__init__(f"failpoint {name!r} injected")
        self.failpoint = name


class _Failpoint:
    __slots__ = ("name", "mode", "arg", "skip", "times", "hits", "fired")

    def __init__(self, name: str, mode: str, arg: float = 0.0,
                 skip: int = 0, times: Optional[int] = None):
        if mode not in _MODES:
            raise ValueError(
                f"unknown failpoint mode {mode!r} for {name!r} "
                f"(choose from {', '.join(_MODES)})"
            )
        if skip < 0 or (times is not None and times < 1) or arg < 0:
            raise ValueError(f"bad failpoint counts for {name!r}")
        self.name = name
        self.mode = mode
        self.arg = arg
        self.skip = skip
        self.times = times
        self.hits = 0
        self.fired = 0


_lock = threading.Lock()
_points: Dict[str, _Failpoint] = {}
_fired: Dict[str, int] = {}
_state_dir: Optional[str] = None
#: Fast-path flag: :func:`inject` returns immediately while this is
#: false, so disarmed failpoints cost one attribute load per call.
_ACTIVE = False


def parse_spec(spec: str) -> List[_Failpoint]:
    """Parse a ``name=mode[:arg][@skip][*times]`` spec string."""
    points = []
    for chunk in spec.replace(";", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(
                f"bad failpoint {chunk!r}: expected name=mode[:arg]"
                f"[@skip][*times]"
            )
        name, action = chunk.split("=", 1)
        times: Optional[int] = None
        skip = 0
        if "*" in action:
            action, times_s = action.rsplit("*", 1)
            times = int(times_s)
        if "@" in action:
            action, skip_s = action.rsplit("@", 1)
            skip = int(skip_s) - 1  # "@N" = fire on the Nth hit
        arg = 0.0
        if ":" in action:
            action, arg_s = action.split(":", 1)
            arg = float(arg_s)
        points.append(
            _Failpoint(name.strip(), action.strip(), arg=arg,
                       skip=skip, times=times)
        )
    return points


def configure(spec: str, state_dir: Optional[str] = None) -> None:
    """Replace the active failpoint set from a spec string.

    ``state_dir`` (or the ``REPRO_FAULTS_STATE`` environment variable)
    makes ``*times`` budgets shared across processes via ticket files.
    """
    global _ACTIVE, _state_dir
    points = parse_spec(spec)
    with _lock:
        _points.clear()
        for point in points:
            _points[point.name] = point
        _state_dir = state_dir or os.environ.get("REPRO_FAULTS_STATE") or None
        _ACTIVE = bool(_points)


def activate(name: str, mode: str, arg: float = 0.0, skip: int = 0,
             times: Optional[int] = None) -> None:
    """Arm one failpoint programmatically (adds to the active set)."""
    global _ACTIVE
    point = _Failpoint(name, mode, arg=arg, skip=skip, times=times)
    with _lock:
        _points[name] = point
        _ACTIVE = True


def clear() -> None:
    """Disarm every failpoint (the fast path is restored)."""
    global _ACTIVE, _state_dir
    with _lock:
        _points.clear()
        _fired.clear()
        _state_dir = None
        _ACTIVE = False


def is_active() -> bool:
    return _ACTIVE


def fired_counts() -> Dict[str, int]:
    """``{failpoint: times fired}`` in this process (survives clear of
    the point itself exhausting its budget, not :func:`clear`)."""
    with _lock:
        return dict(_fired)


def _claim_ticket(name: str, times: int) -> bool:
    """Claim one of ``times`` cross-process tickets via ``O_EXCL``."""
    assert _state_dir is not None
    os.makedirs(_state_dir, exist_ok=True)
    for i in range(times):
        path = os.path.join(
            _state_dir, f"{name.replace(os.sep, '_')}.{i}.fired"
        )
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        return True
    return False


def inject(name: str) -> None:
    """Fire the named failpoint if armed; a near-no-op otherwise."""
    if not _ACTIVE:
        return
    with _lock:
        point = _points.get(name)
        if point is None:
            return
        point.hits += 1
        if point.hits <= point.skip:
            return
        if _state_dir is not None and point.times is not None:
            if not _claim_ticket(name, point.times):
                return
        elif point.times is not None:
            if point.fired >= point.times:
                return
        point.fired += 1
        _fired[name] = _fired.get(name, 0) + 1
        mode, arg = point.mode, point.arg
    if mode == "raise":
        raise FaultInjected(name)
    if mode == "delay":
        time.sleep(arg / 1000.0)
        return
    # kill: no atexit, no flush, no cleanup -- like SIGKILL from inside
    os._exit(KILL_EXIT_CODE)


# arm from the environment at import so subprocesses (spawned workers,
# chaos-test children) do not need an explicit configure() call
_env_spec = os.environ.get("REPRO_FAULTS")
if _env_spec:
    configure(_env_spec)
del _env_spec
