"""Process, HTTP and load-generation plumbing for the served-path benchmark.

Everything here talks to the system from outside: it spawns
``python -m repro.cli serve`` as a child, reads its ``serving on`` line,
drives it over keep-alive HTTP connections and reads ``/proc`` for its
memory and CPU time.  Nothing in this module imports ``repro``.
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from speed_probe import REFERENCE_RATE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
#: Scratch space of every run.  Inside the checkout because the
#: benchmark contract allows no read or write outside it (so not
#: ``/dev/shm``); listed in ``.gitignore``.
WORK_ROOT = OUT / "work"

#: A reply slower than this counts as a failed op (and as missing every
#: latency percentile); the connection is dropped and reopened.
OP_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 60.0

#: Noise controls applied to the server's environment.  One BLAS thread:
#: dim-16 GEMMs gain nothing from a second (12.9 q/s with two vs
#: 12.4-13.8 q/s with one on a 1 M-row exact scan) and the second
#: thread doubled server CPU time and fought the load generator.
SERVER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # the readiness line must not sit in a block buffer
    "PYTHONUNBUFFERED": "1",
}


def child_env() -> Dict[str, str]:
    """Environment of every ``repro.cli`` child: the caller's, plus
    :data:`SERVER_ENV`, with ``src`` importable."""
    env = dict(os.environ)
    env.update(SERVER_ENV)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# -- host ---------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str:
    """HEAD of the checkout, or ``unknown`` (the driver's checkout is
    not a git repository)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def host_info() -> Dict:
    """The host a result was measured on; :mod:`compare` refuses to
    diff results whose host differs."""
    import numpy

    try:
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError, AttributeError):
        ram = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "ram_bytes": ram,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": _git_rev(),
    }


def plan_affinity(allowed: Sequence[int]) -> Tuple[Optional[int], List[int]]:
    """``(server_cpu, loadgen_cpus)``: the server alone on the highest
    allowed CPU, the load generator on the rest.  With one allowed CPU
    nothing is pinned (``(None, allowed)``).

    Measured here: pinning cut the ``ingest_cold`` throughput range over
    four runs from 13 % to 4 %.
    """
    allowed = sorted(allowed)
    if len(allowed) < 2:
        return None, list(allowed)
    return allowed[-1], allowed[:-1]


# -- the server child -------------------------------------------------------


def stale_servers() -> List[int]:
    """Pids of ``repro.cli serve`` processes working under this
    checkout's :data:`WORK_ROOT` -- servers an earlier, crashed
    benchmark process leaked.  A leaked server is exactly the noisy
    neighbour that ruins the next run."""
    marker = str(WORK_ROOT).encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue  # exited while we looked
        if b"repro.cli" in cmdline and b"serve" in cmdline \
                and marker in cmdline:
            found.append(int(entry.name))
    return found


def reap_stale_servers() -> int:
    """Kill leaked servers (see :func:`stale_servers`); returns how many."""
    pids = stale_servers()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while stale_servers() and time.monotonic() < deadline:
        time.sleep(0.05)
    return len(pids)


class ServerProcess:
    """One ``python -m repro.cli serve`` child on an ephemeral port.

    Use as a context manager: leaving the block always reaps the child
    (``/v1/shutdown``, then terminate, then kill).
    """

    def __init__(
        self,
        serve_args: Sequence[str],
        log_path: Path,
        cpu: Optional[int] = None,
    ):
        self.serve_args = list(serve_args)
        self.log_path = Path(log_path)
        self.cpu = cpu
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def __enter__(self) -> "ServerProcess":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def start(self) -> None:
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
        ] + self.serve_args
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command, env=child_env(), cwd=ROOT,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=log, bufsize=0,
            )
        if self.cpu is not None:
            # threads the server starts later inherit this
            os.sched_setaffinity(self.proc.pid, {self.cpu})
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        """Block on the child's ``serving on http://host:port`` line --
        readiness is read, never polled for."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + READY_TIMEOUT_S
        buffered = b""
        while b"\n" not in buffered:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"server not ready after {READY_TIMEOUT_S:.0f}s "
                    f"(log: {self.log_path})"
                )
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                tail = self.log_path.read_text(errors="replace")[-2000:]
                raise RuntimeError(
                    f"server exited with code {self.proc.wait()} before "
                    f"it was ready:\n{tail}"
                )
            buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode().strip()
        if not line.startswith("serving on "):
            raise RuntimeError(f"unexpected first line from server: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def stop(self, graceful: bool = True) -> None:
        """Reap the child: ``/v1/shutdown``, then terminate, then kill.

        ``graceful=False`` starts at terminate -- for the throw-away
        lifecycles of set-up, whose state is discarded and whose clean
        exit would cost ~0.6 s each (the serve loop polls at 0.5 s).
        """
        proc = self.proc
        if proc is None:
            return
        if graceful and proc.poll() is None and self.port is not None:
            client = Client(self.port, timeout_s=10.0)
            client.request("POST", "/v1/shutdown", b"{}")
            client.close()
        elif proc.poll() is None:
            proc.terminate()
        for escalate in (proc.terminate, proc.kill, None):
            try:
                proc.wait(timeout=10.0)
                break
            except subprocess.TimeoutExpired:
                if escalate is None:
                    raise
                escalate()
        if proc.stdout is not None:
            proc.stdout.close()
        self.proc = None

    # -- /proc readings -------------------------------------------------------

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the high-water mark of the server's resident set."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        """utime + stime of the server process, all threads."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")


# -- HTTP client --------------------------------------------------------------


class Client:
    """One keep-alive connection.  :meth:`request` never raises: a
    refused, reset or timed-out exchange comes back with status 0 and
    the connection is reopened for the next op."""

    def __init__(self, port: int, timeout_s: float = OP_TIMEOUT_S):
        self.port = port
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes, float]:
        """``(status, response body, seconds)``."""
        headers = {"Content-Type": "application/json"} if body else {}
        began = time.perf_counter()
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=self.timeout_s
                )
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            status, data = 0, repr(exc).encode()
        return status, data, time.perf_counter() - began

    def get_json(self, path: str) -> Dict:
        status, data, _ = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# -- closed-loop load generation ----------------------------------------------


@dataclass(frozen=True)
class Op:
    """One request of a workload and the work units it completes."""

    path: str
    body: bytes
    units: int = 1
    method: str = "POST"
    #: workload-private handle used to check the reply (e.g. which
    #: query this was)
    key: object = None


@dataclass
class OpResult:
    op: Op
    started: float  # seconds since the phase began
    seconds: float
    status: int
    response: bytes

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def closed_loop(
    port: int,
    ops: Sequence[Op],
    n_clients: int,
    seconds: float,
    cycle: bool,
) -> Tuple[List[OpResult], float]:
    """Drive ``ops`` from ``n_clients`` keep-alive connections, each
    sending its next request only when the previous reply is in.

    Client ``j`` sends ops ``j, j + n, j + 2n, ...`` so the request
    order is a function of the op list alone.  With ``cycle`` the list
    wraps around until ``seconds`` have passed; without, the phase also
    ends when the list is used up.  No new op starts after the deadline;
    ops in flight finish and count.  Returns the results in start order
    and the phase length (first send to last reply).
    """
    results: List[List[OpResult]] = [[] for _ in range(n_clients)]
    barrier = threading.Barrier(n_clients + 1)
    origin = [0.0]

    def client_loop(j: int) -> None:
        client = Client(port)
        barrier.wait()
        began, deadline = origin[0], origin[0] + seconds
        i = j
        try:
            while (cycle or i < len(ops)) and time.perf_counter() < deadline:
                op = ops[i % len(ops)]
                sent = time.perf_counter()
                status, data, took = client.request(
                    op.method, op.path, op.body
                )
                results[j].append(
                    OpResult(op, sent - began, took, status, data)
                )
                i += n_clients
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_loop, args=(j,), daemon=True)
        for j in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    origin[0] = time.perf_counter()
    barrier.wait()
    for thread in threads:
        thread.join(timeout=seconds + 2 * OP_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("load-generator client did not finish")
    merged = sorted(
        (r for per_client in results for r in per_client),
        key=lambda r: r.started,
    )
    elapsed = max((r.started + r.seconds for r in merged), default=0.0)
    return merged, elapsed


# -- host-speed correction ------------------------------------------------------


class SpeedProbe:
    """Runs :mod:`speed_probe` on ``cpu`` for the length of a ``with``
    block; afterwards :attr:`speed` is the host speed during the block
    as a share of the reference (1.0 = reference, 0.9 = 10 % slower).

    It sits on a load-generator CPU, which the blocked clients leave
    almost idle, rather than on the server's: there it would starve
    once the server keeps its CPU busy.  The slow regimes are host-wide
    (the two vCPUs' probe rates tracked ``ingest_cold`` throughput with
    r = 0.87 and 0.92 over 8 runs), so either CPU tells.
    """

    #: Below this much CPU the probe's rate is not trusted and no
    #: correction is made (the load generator's CPU was saturated).
    MIN_CPU_S = 0.2

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.speed = 1.0
        self.starved = False
        self._proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "SpeedProbe":
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed_probe.py"), str(self.cpu)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        proc, self._proc = self._proc, None
        proc.terminate()
        try:
            out, _ = proc.communicate(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        fields = out.split()
        if len(fields) == 2 and float(fields[1]) >= self.MIN_CPU_S:
            self.speed = float(fields[0]) / float(fields[1]) / REFERENCE_RATE
        else:
            self.starved = True


def speed_corrected(seconds: float, floor_s: float, speed: float) -> float:
    """One latency at reference host speed: the part above the
    transport floor is CPU time and scales with the host's speed, the
    floor (a timer, not work) does not."""
    if seconds <= floor_s:
        return seconds
    return floor_s + (seconds - floor_s) * speed


# -- small shared helpers -----------------------------------------------------


def dir_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path``."""
    return sum(
        entry.stat().st_size for entry in Path(path).rglob("*")
        if entry.is_file()
    )


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
