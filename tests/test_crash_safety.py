"""Crash-safety tests: kill -9 during writes, torn shards, recovery.

Real crashes are simulated two ways:

* **subprocess kills** -- a child process arms a ``kill``-mode failpoint
  (`repro.faults`) and dies with ``os._exit(137)`` at exactly the moment
  a power cut would strike (shard bytes written but unpublished, shards
  published but manifest stale, manifest written to temp only).  The
  parent then reopens the store and must see the last consistent
  generation;
* **in-place corruption** -- shard files are truncated / bit-flipped /
  deleted after a clean shutdown.  Verification on open must quarantine
  the damage and keep serving the surviving prefix, with ``degraded``
  visible all the way up through engine stats, ``/healthz`` and
  ``/metrics``.
"""

import json
import os
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro.faults as faults
from repro.api import AsteriaEngine, EngineConfig, EngineServer, QueryRequest
from repro.core.model import FunctionEncoding
from repro.faults import FaultInjected, KILL_EXIT_CODE
from repro.index.store import (
    MANIFEST_NAME,
    QUARANTINE_DIR,
    EmbeddingStore,
)
from repro.index.synth import distance_head_model
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.cache import ArtifactCache

SRC = str(Path(__file__).resolve().parents[1] / "src")

DIM = 8


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.clear()
    yield
    faults.clear()


def _encoding(i: int, dim: int = DIM) -> FunctionEncoding:
    rng = np.random.default_rng(i)
    return FunctionEncoding(
        name=f"fn_{i}",
        arch="x86",
        binary_name=f"bin-{i % 3}",
        vector=rng.normal(size=dim),
        callee_count=i % 5,
        ast_size=10 + i,
    )


#: Child program: create a 6-row store, or grow it by 8 rows with an
#: optional failpoint spec armed right before the flush.  Mirrors
#: `_encoding` above so the parent can predict every vector.
_CHILD = """
import sys
import numpy as np
import repro.faults as faults
from repro.core.model import FunctionEncoding
from repro.index.store import EmbeddingStore

root, phase, spec = sys.argv[1], sys.argv[2], sys.argv[3]

def encodings(lo, hi, dim=8):
    for i in range(lo, hi):
        rng = np.random.default_rng(i)
        yield FunctionEncoding(
            name=f"fn_{i}", arch="x86", binary_name=f"bin-{i % 3}",
            vector=rng.normal(size=dim), callee_count=i % 5,
            ast_size=10 + i,
        )

if phase == "create":
    store = EmbeddingStore.create(root, dim=8, shard_size=4)
    for encoding in encodings(0, 6):
        store.add(encoding)
else:
    store = EmbeddingStore.open(root)
    for encoding in encodings(6, 14):
        store.add(encoding)
if spec:
    faults.configure(spec)
store.flush()
print("flushed", len(store))
"""


def _run_child(root, phase: str, spec: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    return subprocess.run(
        [sys.executable, "-c", _CHILD, str(root), phase, spec],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _seed_store(root) -> np.ndarray:
    """6 rows across 2 shards, written by a clean child process."""
    proc = _run_child(root, "create")
    assert proc.returncode == 0, proc.stderr
    return np.stack([_encoding(i).vector for i in range(6)])


# -- kill -9 during writes -------------------------------------------------


class TestKillDuringFlush:
    @pytest.mark.parametrize("failpoint", [
        "store.flush.pre_rename",    # shard bytes durable, unpublished
        "store.flush.pre_manifest",  # shards visible, manifest stale
        "store.manifest.pre_rename", # new manifest exists as temp only
    ])
    def test_reopen_serves_last_consistent_generation(
        self, tmp_path, failpoint
    ):
        root = tmp_path / "idx"
        baseline = _seed_store(root)
        proc = _run_child(root, "grow", f"{failpoint}=kill")
        assert proc.returncode == KILL_EXIT_CODE, proc.stderr
        store = EmbeddingStore.open(root)
        assert len(store) == 6  # the crashed generation never happened
        assert not store.degraded  # nothing referenced was torn
        assert np.allclose(
            np.asarray(store.vectors(), dtype=np.float64), baseline,
            atol=1e-6,
        )
        assert [store.metadata_at(row).name for row in range(6)] \
            == [f"fn_{i}" for i in range(6)]

    def test_interrupted_growth_can_be_retried(self, tmp_path):
        root = tmp_path / "idx"
        _seed_store(root)
        proc = _run_child(root, "grow", "store.flush.pre_manifest=kill")
        assert proc.returncode == KILL_EXIT_CODE, proc.stderr
        # the orphaned shard files from the crashed flush are simply
        # overwritten when the ingest is retried
        proc = _run_child(root, "grow")
        assert proc.returncode == 0, proc.stderr
        store = EmbeddingStore.open(root)
        assert len(store) == 14
        assert not store.degraded
        assert [store.metadata_at(row).name for row in range(14)] \
            == [f"fn_{i}" for i in range(14)]

    def test_temp_files_never_count_as_shards(self, tmp_path):
        root = tmp_path / "idx"
        _seed_store(root)
        proc = _run_child(root, "grow", "store.flush.pre_rename=kill")
        assert proc.returncode == KILL_EXIT_CODE
        leftovers = list(root.glob("*.tmp"))
        assert leftovers  # the crash left its torn temp file behind
        store = EmbeddingStore.open(root)
        assert len(store) == 6


# -- torn / corrupt shards on open -----------------------------------------


class TestTornShardRecovery:
    def _fill(self, root, n=10) -> EmbeddingStore:
        store = EmbeddingStore.create(root, dim=DIM, shard_size=4)
        for i in range(n):
            store.add(_encoding(i))
        store.flush()
        return store

    def test_manifest_records_checksums(self, tmp_path):
        root = tmp_path / "idx"
        self._fill(root)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        for entry in manifest["shards"]:
            assert (root / f"{entry['name']}.shard").exists()
            assert len(entry["sha256"]) == 64

    def test_truncated_tail_shard_is_quarantined(self, tmp_path):
        root = tmp_path / "idx"
        baseline = np.asarray(self._fill(root).vectors(), dtype=np.float64)
        shard = root / "shard-00002.shard"
        shard.write_bytes(shard.read_bytes()[:-16])  # torn write
        store = EmbeddingStore.open(root)
        assert store.degraded
        assert store.quarantined == ["shard-00002"]
        assert len(store) == 8  # 4 + 4 surviving rows
        assert np.allclose(
            np.asarray(store.vectors(), dtype=np.float64), baseline[:8],
            atol=1e-6,
        )
        # the damaged files moved aside for post-mortem, not deleted
        assert (root / QUARANTINE_DIR / "shard-00002.shard").exists()
        # recovery persisted: a second open is already clean but still
        # reports the degradation
        reopened = EmbeddingStore.open(root)
        assert reopened.degraded
        assert len(reopened) == 8

    def test_bitflip_is_caught_by_checksum(self, tmp_path):
        root = tmp_path / "idx"
        self._fill(root)
        shard = root / "shard-00001.shard"
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0xFF  # same size, different bytes
        shard.write_bytes(bytes(data))
        store = EmbeddingStore.open(root)
        assert store.degraded
        # rows are positional: everything after the bad shard goes too
        assert store.quarantined == ["shard-00001", "shard-00002"]
        assert len(store) == 4

    def test_missing_file_truncates_to_prefix(self, tmp_path):
        root = tmp_path / "idx"
        self._fill(root)
        (root / "shard-00000.shard").unlink()
        store = EmbeddingStore.open(root)
        assert store.degraded
        assert len(store) == 0  # first shard bad: nothing survives
        assert len(store.quarantined) == 3

    def test_verify_can_be_skipped(self, tmp_path):
        root = tmp_path / "idx"
        self._fill(root)
        store = EmbeddingStore.open(root, verify=False)
        assert not store.degraded
        assert len(store) == 10
        # verification decides which rows are served, never how they rank
        model = distance_head_model(DIM)
        requests = [
            QueryRequest(encoding=_encoding(i), top_k=5)
            for i in range(90, 94)
        ]
        rankings = [
            [[(hit.row, hit.score) for hit in result.hits] for result in
             AsteriaEngine(model=model, store=opened).query_batch(requests)]
            for opened in (store, EmbeddingStore.open(root))
        ]
        assert rankings[0] == rankings[1]

    def test_stale_ann_state_is_dropped_with_the_rows(self, tmp_path):
        root = tmp_path / "idx"
        store = self._fill(root)
        store.write_ann_state(
            {"kind": "ivf-pq", "n_rows": 10},
            {"centroids": np.zeros((4, DIM))},
        )
        shard = root / "shard-00002.shard"
        shard.write_bytes(shard.read_bytes()[:-8])
        recovered = EmbeddingStore.open(root)
        assert len(recovered) == 8
        # codes covering vanished rows must not survive recovery
        assert recovered.read_ann_state() is None


# -- ANN persistence and construction faults -------------------------------


class TestAnnFaults:
    def test_ann_persist_crash_keeps_previous_state(self, tmp_path):
        root = tmp_path / "idx"
        store = EmbeddingStore.create(root, dim=DIM, shard_size=4)
        for i in range(4):
            store.add(_encoding(i))
        store.flush()
        store.write_ann_state(
            {"kind": "ivf-pq", "n_rows": 4, "generation": 1},
            {"centroids": np.ones((4, DIM))},
        )
        faults.configure("ann.persist.pre_rename=raise*1")
        with pytest.raises(FaultInjected):
            store.write_ann_state(
                {"kind": "ivf-pq", "n_rows": 4, "generation": 2},
                {"centroids": np.zeros((4, DIM))},
            )
        # the interrupted write left generation 1 fully intact
        reopened = EmbeddingStore.open(root)
        state = reopened.read_ann_state()
        assert state is not None
        params, arrays = state
        assert params["generation"] == 1
        assert np.allclose(arrays["centroids"], 1.0)

    def test_ann_build_failure_degrades_to_exact(self, trained_model):
        dim = trained_model.config.hidden_dim
        store = EmbeddingStore.in_memory(dim=dim)
        for i in range(12):
            store.add(_encoding(i, dim=dim))
        store.flush()
        registry = MetricsRegistry()
        engine = AsteriaEngine(
            EngineConfig(backend="ivf-pq"), model=trained_model,
            store=store, registry=registry,
        )
        request = QueryRequest(encoding=_encoding(99, dim=dim), top_k=3)
        faults.configure("ann.build=raise")
        hits = engine.query(request).hits
        assert len(hits) == 3  # exact sweep answered instead of failing
        stats = engine.stats()
        assert stats.degraded
        assert any(
            "serving exact sweeps" in r for r in stats.degraded_reasons
        )
        assert registry.value("repro_ann_fallback_total") >= 1
        # once construction works again, a rebuild clears the flag
        faults.clear()
        store.add(_encoding(100, dim=dim))
        store.flush()
        engine.query(request)
        assert engine.stats().degraded_reasons == []


# -- artifact cache crashes ------------------------------------------------


class TestCacheCrashes:
    def test_interrupted_put_leaves_no_entry(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        faults.configure("cache.put.pre_rename=raise*1")
        with pytest.raises(FaultInjected):
            cache.put("key-a", {"x": np.arange(4.0)}, {"kind": "test"})
        cache.flush()
        recovered = ArtifactCache(tmp_path / "cache")
        assert recovered.get("key-a") is None  # a miss, not a crash
        # and the retried put works
        recovered.put("key-a", {"x": np.arange(4.0)}, {"kind": "test"})
        state, meta = recovered.get("key-a")
        assert np.array_equal(state["x"], np.arange(4.0))
        assert meta["kind"] == "test"

    def test_corrupt_object_detected_on_get(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cache.put("key-b", {"x": np.arange(8.0)}, {})
        cache.flush()
        reopened = ArtifactCache(tmp_path / "cache")
        [obj] = list((tmp_path / "cache").glob("**/key-b.npz"))
        data = bytearray(obj.read_bytes())
        data[len(data) // 2] ^= 0xFF
        obj.write_bytes(bytes(data))
        assert reopened.get("key-b") is None  # checksum caught it


# -- end-to-end degraded-mode surfacing ------------------------------------


class TestDegradedSurfacing:
    def _degraded_root(self, tmp_path, dim) -> Path:
        root = tmp_path / "idx"
        store = EmbeddingStore.create(root, dim=dim, shard_size=4)
        for i in range(10):
            store.add(_encoding(i, dim=dim))
        store.flush()
        shard = root / "shard-00002.shard"
        shard.write_bytes(shard.read_bytes()[:-8])
        return root

    def test_engine_stats_and_metrics_report_degraded(
        self, tmp_path, trained_model
    ):
        root = self._degraded_root(tmp_path, trained_model.config.hidden_dim)
        engine = AsteriaEngine(
            EngineConfig(index_root=str(root)), model=trained_model,
        )
        engine.store  # serve() opens the configured index up front too
        stats = engine.stats()
        assert stats.degraded is True
        assert stats.index_quarantined_shards == 1
        assert any("quarantined" in r for r in stats.degraded_reasons)
        assert stats.index_rows == 8
        text = engine.metrics_text()
        assert "repro_engine_degraded 1" in text
        assert "repro_index_quarantined_shards 1" in text

    def test_healthz_shows_degraded_status(self, tmp_path, trained_model):
        root = self._degraded_root(tmp_path, trained_model.config.hidden_dim)
        engine = AsteriaEngine(
            EngineConfig(index_root=str(root)), model=trained_model,
        )
        engine.store  # serve() opens the configured index up front too
        server = EngineServer(("127.0.0.1", 0), engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                server.url + "/healthz", timeout=30
            ) as response:
                body = json.loads(response.read())
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert body["status"] == "degraded"
        assert body["degraded"] is True
        assert body["quarantined_shards"] == 1
        assert any("quarantined" in r for r in body["degraded_reasons"])
