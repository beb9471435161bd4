"""Chaos tests: failpoint injection, retry backoff, worker crashes, deadlines,
load shedding and draining shutdown.

The failpoint subsystem (`repro.faults`) is process-global by design, so
every test that arms faults disarms them again via the autouse fixture
below -- a leaked failpoint would make unrelated tests flaky in exactly
the way this suite exists to prevent.
"""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro.faults as faults
from repro.api import AsteriaEngine, EngineConfig, EngineServer
from repro.api.batching import MicroBatcher
from repro.api.errors import DeadlineExceededError
from repro.faults import FaultInjected, KILL_EXIT_CODE, parse_spec
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import WorkerTaskError
from repro.pipeline.workers import extract_all, extract_stream
from repro.utils.supervisor import _backoff_delay

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No test may leak armed failpoints into the rest of the suite."""
    faults.clear()
    yield
    faults.clear()


# -- spec parsing ----------------------------------------------------------


class TestSpecParsing:
    def test_modes_args_and_counters(self):
        points = parse_spec(
            "a=raise, b=delay:250@3, c=kill*2; d=raise@2*1"
        )
        by_name = {p.name: p for p in points}
        assert set(by_name) == {"a", "b", "c", "d"}
        assert by_name["a"].mode == "raise"
        assert (by_name["b"].mode, by_name["b"].arg) == ("delay", 250.0)
        assert by_name["b"].skip == 2  # "@3" = fire on the 3rd hit
        assert (by_name["c"].mode, by_name["c"].times) == ("kill", 2)
        assert (by_name["d"].skip, by_name["d"].times) == (1, 1)

    def test_empty_spec_is_no_points(self):
        assert parse_spec("") == []
        assert parse_spec(" , ; ") == []

    @pytest.mark.parametrize("spec", [
        "justaname",              # no '='
        "x=explode",              # unknown mode
        "x=raise*0",              # times must be >= 1
        "x=delay:-5",             # negative delay
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_spec(spec)


# -- injection semantics ---------------------------------------------------


class TestInject:
    def test_disarmed_inject_is_a_no_op(self):
        faults.inject("store.flush.pre_rename")  # must not raise
        assert not faults.is_active()

    def test_raise_mode_names_the_failpoint(self):
        faults.configure("x.y=raise")
        with pytest.raises(FaultInjected) as err:
            faults.inject("x.y")
        assert err.value.failpoint == "x.y"
        faults.inject("other.point")  # unarmed points still pass

    def test_skip_and_times_budgets(self):
        faults.configure("p=raise@2*2")  # fire on hits 2 and 3 only
        faults.inject("p")  # hit 1: skipped
        for _ in range(2):
            with pytest.raises(FaultInjected):
                faults.inject("p")
        faults.inject("p")  # budget exhausted
        assert faults.fired_counts() == {"p": 2}

    def test_delay_mode_sleeps(self):
        faults.configure("slow=delay:50")
        start = time.monotonic()
        faults.inject("slow")
        assert time.monotonic() - start >= 0.045

    def test_clear_restores_fast_path(self):
        faults.configure("x=raise")
        faults.clear()
        assert not faults.is_active()
        faults.inject("x")

    def test_configure_replaces_previous_set(self):
        faults.configure("a=raise")
        faults.configure("b=raise")
        faults.inject("a")  # no longer armed
        with pytest.raises(FaultInjected):
            faults.inject("b")

    def test_kill_mode_exits_with_sigkill_status(self, tmp_path):
        script = (
            "import repro.faults as faults\n"
            "faults.configure('die.here=kill')\n"
            "faults.inject('die.here')\n"
            "print('unreachable')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == KILL_EXIT_CODE
        assert "unreachable" not in proc.stdout

    def test_env_spec_arms_subprocesses(self, tmp_path):
        script = (
            "import repro.faults as faults\n"
            "assert faults.is_active()\n"
            "try:\n"
            "    faults.inject('from.env')\n"
            "except faults.FaultInjected:\n"
            "    print('armed-ok')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_FAULTS"] = "from.env=raise"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "armed-ok" in proc.stdout

    def test_cross_process_ticket_budget(self, tmp_path):
        # two processes race for one *1 ticket: exactly one fires
        faults.configure("shared=raise*1", state_dir=str(tmp_path))
        fired = 0
        for _ in range(3):  # same-process stands in for forked workers
            try:
                faults.inject("shared")
            except FaultInjected:
                fired += 1
        assert fired == 1
        assert len(list(tmp_path.glob("shared.*.fired"))) == 1


# -- retry backoff ---------------------------------------------------------

#: The supervisor's pre-jitter delay after 1, 2, ... charged failures.
BACKOFF_CAPS = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]


class TestRetry:
    def test_backoff_delays_grow_and_cap(self):
        class NoJitter:
            @staticmethod
            def random():
                return 0.0

        delays = [_backoff_delay(n, NoJitter())
                  for n in range(1, len(BACKOFF_CAPS) + 1)]
        assert delays == pytest.approx(BACKOFF_CAPS)

    def test_jitter_only_shrinks_delays(self):
        import random

        rng = random.Random(7)
        for n, cap in enumerate(BACKOFF_CAPS, start=1):
            assert cap / 2 <= _backoff_delay(n, rng) <= cap


# -- worker pool chaos -----------------------------------------------------


class TestWorkerChaos:
    def _names(self, results):
        return [(r.binary_name, r.arch, tuple(r.names)) for r in results]

    def test_killed_worker_is_replaced_and_task_requeued(
        self, binaries, tmp_path
    ):
        inputs = list(binaries.values())
        baseline = self._names(extract_all(inputs, min_ast_size=5, jobs=1))
        # one worker (any of them) dies mid-task with SIGKILL semantics;
        # the ticket directory bounds the kill to exactly one process
        faults.configure(
            "worker.task=kill*1", state_dir=str(tmp_path / "tickets")
        )
        registry = MetricsRegistry()
        survived = self._names(extract_all(
            inputs, min_ast_size=5, jobs=2, registry=registry,
        ))
        assert survived == baseline  # same results, same order
        assert registry.value("repro_worker_restarts_total") >= 1
        assert registry.value("repro_worker_task_retries_total") >= 1

    def test_transient_task_errors_are_retried(self, binaries, tmp_path):
        inputs = list(binaries.values())
        baseline = self._names(extract_all(inputs, min_ast_size=5, jobs=1))
        # the first two task executions anywhere in the pool raise
        faults.configure(
            "worker.task=raise*2", state_dir=str(tmp_path / "tickets")
        )
        survived = self._names(extract_all(inputs, min_ast_size=5, jobs=2))
        assert survived == baseline

    def test_poison_task_fails_after_bounded_attempts(self, binaries):
        inputs = list(binaries.values())[:2]
        faults.configure("worker.task=raise")  # every attempt raises
        stream = extract_stream(inputs, min_ast_size=5, jobs=2)
        with pytest.raises(WorkerTaskError, match="failed 3 time"):
            list(stream)


# -- micro-batcher deadlines -----------------------------------------------


class TestBatcherDeadline:
    def test_expired_caller_raises_instead_of_waiting(self):
        import numpy as np

        release = threading.Event()

        def slow_encode(trees):
            release.wait(timeout=10)
            return np.zeros((len(trees), 4))

        batcher = MicroBatcher(slow_encode, max_batch_size=2, max_wait_s=0)
        leader = threading.Thread(
            target=lambda: batcher.encode("t0"), daemon=True
        )
        leader.start()
        time.sleep(0.05)  # let the leader claim its batch and block
        try:
            with pytest.raises(DeadlineExceededError):
                batcher.encode("t1", deadline=time.monotonic() + 0.05)
            assert not batcher._pending  # the expired item left the queue
        finally:
            release.set()
            leader.join(timeout=10)

    def test_no_deadline_still_completes(self):
        import numpy as np

        batcher = MicroBatcher(
            lambda trees: np.ones((len(trees), 4)), max_batch_size=4,
        )
        out = batcher.encode_many(["a", "b"], deadline=None)
        assert out.shape == (2, 4)


# -- resilient serving over HTTP -------------------------------------------


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        return response.status, json.loads(response.read()), response.headers


def _post(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read()), \
                response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


class _RunningServer:
    """A real EngineServer on an ephemeral port, torn down cleanly."""

    def __init__(self, engine):
        self.server = EngineServer(("127.0.0.1", 0), engine)
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()

    def __enter__(self):
        return self.server

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


class TestServingResilience:
    def test_healthz_reports_fault_tolerance_fields(self, trained_model):
        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        with _RunningServer(engine) as server:
            status, body, _ = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["degraded"] is False
        assert body["degraded_reasons"] == []
        assert body["quarantined_shards"] == 0
        assert body["draining"] is False
        assert body["inflight"] == 0

    def test_overload_sheds_with_503_and_retry_after(self, trained_model):
        # one admission slot + a 300 ms stall per admitted request: a
        # 6-client burst must shed most of the load instead of queueing
        engine = AsteriaEngine(
            EngineConfig(max_inflight=1, faults="server.request=delay:300"),
            model=trained_model,
        )
        with _RunningServer(engine) as server:
            results = []
            barrier = threading.Barrier(6)

            def client():
                barrier.wait()
                results.append(_post(server, "/v1/compare", {}))

            threads = [
                threading.Thread(target=client) for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            statuses = sorted(code for code, _, _ in results)
            shed = [r for r in results if r[0] == 503]
            # at least one admitted (400: empty compare payload after the
            # injected delay) and at least one shed
            assert statuses.count(503) >= 1, statuses
            assert any(code != 503 for code in statuses), statuses
            for _code, body, headers in shed:
                assert headers["Retry-After"] == "1"
                assert body["exit_code"] == 8
                assert "overloaded" in body["error"]
            assert engine.obs.value("repro_requests_shed_total") \
                == len(shed)
            assert engine.stats().n_shed == len(shed)
            # the metrics exposition carries the shed counter too
            with urllib.request.urlopen(
                server.url + "/metrics", timeout=30
            ) as response:
                text = response.read().decode()
            assert "repro_requests_shed_total" in text

    def test_request_deadline_maps_to_504(self, trained_model):
        from repro.api import IngestRequest

        engine = AsteriaEngine(
            EngineConfig(request_timeout_ms=0.0001),  # expires instantly
            model=trained_model,
        )
        engine.ingest(IngestRequest(corpus_images=1, corpus_seed=4))
        with _RunningServer(engine) as server:
            status, body, _ = _post(
                server, "/v1/query", {"cve": "CVE-2016-2105"},
            )
        assert status == 504
        assert body["exit_code"] == 7
        assert "deadline" in body["error"]
        assert engine.stats().n_timeouts >= 1
        assert engine.obs.value("repro_request_timeouts_total") >= 1

    def test_shutdown_drains_inflight_requests(self, trained_model):
        engine = AsteriaEngine(
            EngineConfig(faults="server.request=delay:400"),
            model=trained_model,
        )
        with _RunningServer(engine) as server:
            slow_result = []

            def slow_client():
                slow_result.append(_post(server, "/v1/compare", {}))

            thread = threading.Thread(target=slow_client)
            thread.start()
            time.sleep(0.1)  # let the slow request get admitted
            status, body, _ = _post(server, "/v1/shutdown", {})
            thread.join(timeout=30)
        assert status == 200
        assert body["status"] == "shutting down"
        assert body["drained"] is True
        # the in-flight request got its (400 empty-payload) answer, not
        # a reset connection
        assert slow_result and slow_result[0][0] == 400

    def test_draining_server_rejects_new_work(self, trained_model):
        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        with _RunningServer(engine) as server:
            server.drain(timeout_s=1.0)
            status, body, headers = _post(server, "/v1/compare", {})
            assert status == 503
            assert headers["Retry-After"] == "1"

    def test_serve_cli_flags_reach_the_config(self):
        config = EngineConfig.from_dict({
            "request_timeout_ms": 250.0,
            "max_inflight": 7,
            "drain_timeout_ms": 100.0,
            "faults": "server.request=delay:1",
        })
        assert config.request_timeout_ms == 250.0
        assert config.max_inflight == 7
        assert config.drain_timeout_ms == 100.0
        assert config.faults == "server.request=delay:1"

    def test_engine_config_arms_faults(self, trained_model):
        AsteriaEngine(
            EngineConfig(faults="cfg.armed=raise"), model=trained_model,
        )
        with pytest.raises(FaultInjected):
            faults.inject("cfg.armed")
