"""Tests for the shard-parallel serving subsystem (`repro.serving`).

Covers the generation protocol (atomic CURRENT pointer, clone, abort),
range planning (near-equal ranges cut at shard boundaries),
the supervised worker pool (merge equality, kill/raise failpoints,
bounded retries), the engine integration (generation-tagged queries,
ingest-as-new-generation, stats/healthz surfaces), and the headline
guarantee: an uninterrupted, generation-consistent query stream across
a live hot swap.
"""

from __future__ import annotations

import json
import threading
import urllib.request
from dataclasses import asdict

import numpy as np
import pytest

import repro.faults as faults
from repro.api.config import EngineConfig
from repro.api.engine import AsteriaEngine, IngestRequest, QueryRequest
from repro.api.errors import (
    BadRequestError,
    DeadlineExceededError,
    EngineError,
)
from repro.api.server import EngineServer
from repro.cli import main
from repro.core.model import Asteria, AsteriaConfig, FunctionEncoding
from repro.index.ann import BruteForceIndex
from repro.index.store import EmbeddingStore
from repro.serving import generations
from repro.serving.coordinator import ServingCoordinator, shard_ranges
from repro.serving.pool import (
    ShardWorkerPool,
    SweepError,
    SweepTimeout,
    _sweep_setup,
)

DIM = 16


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def model():
    """Scoring only needs the Siamese head; untrained weights are fine
    (scores are still deterministic functions of the vectors)."""
    return Asteria(AsteriaConfig(hidden_dim=DIM))


def _encoding(i, vector):
    return FunctionEncoding(
        name=f"f{i}", arch="x86", binary_name=f"bin{i % 7}",
        vector=np.asarray(vector, dtype=np.float64),
        callee_count=i % 9, ast_size=10 + i % 5,
    )


def _fill_store(root, n, shard_size, seed=0):
    store = EmbeddingStore.create(root, dim=DIM, shard_size=shard_size)
    vectors = np.random.default_rng(seed).normal(size=(n, DIM))
    for i in range(n):
        store.add(_encoding(i, vectors[i]))
    store.flush()
    return store, vectors


def _queries(vectors, n=4):
    step = max(1, len(vectors) // (n + 1))
    return [
        _encoding(1000 + i, vectors[(i + 1) * step]) for i in range(n)
    ]


def _reference(model, store, queries, k=10, threshold=None):
    index = BruteForceIndex(
        model, store.vectors().snapshot(), store.callee_counts(),
        calibrate=True,
    )
    return index.top_k_batch(queries, k=k, threshold=threshold)


def _rows_scores(neighbors_or_hits):
    return (
        [h.row for h in neighbors_or_hits],
        [h.score for h in neighbors_or_hits],
    )


# -- generations ------------------------------------------------------------


class TestGenerations:
    def test_flat_layout_is_generation_zero(self, tmp_path):
        assert generations.read_current(tmp_path) is None
        assert generations.active_root(tmp_path) == tmp_path
        assert generations.generation_seq(None) == 0
        assert generations.generation_seq(".") == 0

    def test_prepare_commit_roundtrip(self, tmp_path):
        rel, path = generations.prepare_generation(tmp_path)
        assert rel == "generations/gen-00001"
        assert path.is_dir()
        generations.commit_generation(tmp_path, rel)
        assert generations.read_current(tmp_path) == rel
        assert generations.active_root(tmp_path) == path
        assert generations.generation_seq(rel) == 1
        # the next prepare sees both the directory and the pointer
        rel2, _ = generations.prepare_generation(tmp_path)
        assert rel2 == "generations/gen-00002"
        assert generations.list_generations(tmp_path) == [rel, rel2]

    def test_clone_links_store_artifacts(self, tmp_path, model):
        src = tmp_path / "idx"
        store, _ = _fill_store(src, 40, shard_size=16)
        rel, dst = generations.prepare_generation(src)
        n = generations.clone_store(src, dst)
        assert n >= store.n_shards * 2 + 1  # shards + meta + manifest
        clone = EmbeddingStore.open(dst, verify=True)
        assert len(clone) == len(store)
        # shard bytes are shared, not copied (immutable once flushed)
        a_shard = next(src.glob("shard-*.npy"))
        assert (dst / a_shard.name).stat().st_ino == a_shard.stat().st_ino
        # generations/ and CURRENT never leak into a clone
        assert not (dst / "generations").exists()
        assert not (dst / "CURRENT").exists()

    def test_swap_failpoint_aborts_cleanly(self, tmp_path):
        rel1, _ = generations.prepare_generation(tmp_path)
        generations.commit_generation(tmp_path, rel1)
        rel2, _ = generations.prepare_generation(tmp_path)
        faults.configure("serving.swap=raise")
        with pytest.raises(faults.FaultInjected):
            generations.commit_generation(tmp_path, rel2)
        # the old pointer survived the aborted commit
        assert generations.read_current(tmp_path) == rel1


# -- range planning ---------------------------------------------------------


class TestShardRanges:
    def test_ranges_cover_disjointly(self):
        offsets = list(range(0, 40001, 5000))  # 8 shards x 5000 rows
        ranges = shard_ranges(offsets, 4)
        assert ranges[0][0] == 0 and ranges[-1][1] == 40000
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
        assert 1 <= len(ranges) <= 4
        for start, stop in ranges:
            assert start in offsets and stop in offsets

    def test_a_shard_is_the_granularity(self):
        # fewer shards than parts: one range per shard, however small
        assert shard_ranges([0, 100, 200], 4) == [(0, 100), (100, 200)]
        # every worker gets a range as soon as there is a shard for it
        assert shard_ranges([0, 50, 100, 150, 200], 4) == [
            (0, 50), (50, 100), (100, 150), (150, 200)
        ]
        # uneven shards: cuts land on the boundary nearest the ideal one
        assert shard_ranges([0, 10, 90, 100, 200], 2) == [(0, 100), (100, 200)]

    def test_empty(self):
        assert shard_ranges([0], 4) == []
        assert shard_ranges([], 4) == []


class TestSliceRows:
    def test_subview_matches_dense_slice(self, tmp_path):
        store, vectors = _fill_store(tmp_path / "idx", 50, shard_size=16)
        view = store.vectors()
        for start, stop in [(0, 50), (10, 40), (16, 32), (3, 3), (48, 50)]:
            sub = view.slice_rows(start, stop)
            assert len(sub) == stop - start
            np.testing.assert_array_equal(
                np.asarray(sub.snapshot().take(
                    np.arange(len(sub)))),
                np.asarray(view.snapshot().take(np.arange(start, stop))),
            )

    def test_interior_blocks_are_shared(self, tmp_path):
        store, _ = _fill_store(tmp_path / "idx", 48, shard_size=16)
        view = store.vectors()
        sub = view.slice_rows(16, 32)  # exactly the middle shard
        (_, sub_block), = list(sub.iter_blocks())
        blocks = [b for _, b in view.iter_blocks()]
        assert any(sub_block is b for b in blocks)  # zero-copy share

    def test_out_of_range_clamped(self, tmp_path):
        store, _ = _fill_store(tmp_path / "idx", 10, shard_size=4)
        view = store.vectors()
        assert len(view.slice_rows(-5, 99)) == 10
        assert len(view.slice_rows(7, 3)) == 0


# -- pool correctness -------------------------------------------------------


class TestPoolMerge:
    def test_single_range_matches_reference(self, tmp_path, model):
        store, vectors = _fill_store(tmp_path / "idx", 120, shard_size=32)
        queries = _queries(vectors)
        reference = _reference(model, store, queries, k=7)
        coordinator = ServingCoordinator(
            model, tmp_path / "idx", n_workers=2, calibrate=True
        )
        coordinator.activate(".", store)
        try:
            hit_lists, n_rows, gen = coordinator.query_batch(
                queries, top_k=7, threshold=None, timeout_s=120
            )
            assert n_rows == 120 and gen == "."
            for ref, hits in zip(reference, hit_lists):
                assert _rows_scores(ref) == _rows_scores(hits)
        finally:
            coordinator.close()

    def test_multi_range_merge_is_bit_for_bit(self, tmp_path, model):
        # 3 shards of 7000 rows: each exceeds half the 8192-row scoring
        # budget, so each is its own block -> 3 ranges for 3 workers
        store, vectors = _fill_store(
            tmp_path / "idx", 21000, shard_size=7000
        )
        assert shard_ranges(store.shard_offsets(), 3) == [
            (0, 7000), (7000, 14000), (14000, 21000)
        ]
        queries = _queries(vectors, n=3)
        coordinator = ServingCoordinator(
            model, tmp_path / "idx", n_workers=3, calibrate=True
        )
        coordinator.activate(".", store)
        try:
            for k, threshold in [(10, None), (5, 0.5), (None, 0.9)]:
                reference = _reference(
                    model, store, queries, k=k, threshold=threshold
                )
                hit_lists, _, _ = coordinator.query_batch(
                    queries, top_k=k, threshold=threshold, timeout_s=300
                )
                for ref, hits in zip(reference, hit_lists):
                    assert _rows_scores(ref) == _rows_scores(hits)
        finally:
            coordinator.close()

    def test_empty_store(self, tmp_path, model):
        store = EmbeddingStore.create(tmp_path / "idx", dim=DIM)
        coordinator = ServingCoordinator(
            model, tmp_path / "idx", n_workers=2
        )
        coordinator.activate(".", store)
        try:
            hit_lists, n_rows, _ = coordinator.query_batch(
                [_encoding(0, np.zeros(DIM))], top_k=5, threshold=None
            )
            assert hit_lists == [[]] and n_rows == 0
        finally:
            coordinator.close()


class TestWorkerIndexCache:
    def test_a_range_index_is_built_once_per_generation(
        self, tmp_path, model, monkeypatch
    ):
        """A sweep worker keeps its range index (and the index's count
        layout) per generation root: five tasks build it once, a hot
        swap to a new root builds one more."""
        root = tmp_path / "idx"
        store, vectors = _fill_store(root, 120, shard_size=32)
        rel, new_root = generations.prepare_generation(root)
        generations.clone_store(root, new_root)
        built = []

        class CountingIndex(BruteForceIndex):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(len(self))

        monkeypatch.setattr(
            "repro.serving.pool.BruteForceIndex", CountingIndex
        )
        sweep = _sweep_setup(
            0, asdict(model.config), model.siamese.state_dict()
        )
        queries = _queries(vectors)
        q_vectors = np.stack([q.vector for q in queries])
        q_counts = np.array([q.callee_count for q in queries])
        reference = [
            _rows_scores(neighbors)
            for neighbors in _reference(model, store, queries, k=5)
        ]
        for generation_root, builds in [(root, [120]), (new_root, [120] * 2)]:
            for _ in range(5):
                _, _, partials = sweep((
                    str(generation_root), 0, 120, q_vectors, q_counts,
                    5, None, True,
                ))
                # a cached index answers bit for bit
                assert [
                    (rows.tolist(), scores.tolist())
                    for rows, scores in partials
                ] == reference
            assert built == builds


class TestPoolChaos:
    def test_killed_worker_is_replaced_rankings_identical(
        self, tmp_path, model
    ):
        from repro.obs.metrics import MetricsRegistry

        store, vectors = _fill_store(tmp_path / "idx", 120, shard_size=32)
        queries = _queries(vectors)
        reference = _reference(model, store, queries, k=5)
        # exactly one worker anywhere in the pool dies mid-sweep; the
        # ticket directory bounds the kill across processes
        faults.configure(
            "serving.worker=kill*1", state_dir=str(tmp_path / "tickets")
        )
        registry = MetricsRegistry()
        coordinator = ServingCoordinator(
            model, tmp_path / "idx", n_workers=2, registry=registry,
            calibrate=True,
        )
        coordinator.activate(".", store)
        try:
            hit_lists, _, _ = coordinator.query_batch(
                queries, top_k=5, threshold=None, timeout_s=120
            )
            for ref, hits in zip(reference, hit_lists):
                assert _rows_scores(ref) == _rows_scores(hits)
            assert registry.value("repro_serve_worker_restarts_total") >= 1
            assert registry.value("repro_serve_task_retries_total") >= 1
            # the replacement is alive in the dead worker's slot
            info = coordinator.pool.workers_info()
            assert len(info) == 2 and all(w["alive"] for w in info)
        finally:
            coordinator.close()

    def test_transient_raise_is_retried(self, tmp_path, model):
        store, vectors = _fill_store(tmp_path / "idx", 60, shard_size=32)
        queries = _queries(vectors, n=2)
        reference = _reference(model, store, queries, k=5)
        faults.configure(
            "serving.worker=raise*1", state_dir=str(tmp_path / "tickets")
        )
        coordinator = ServingCoordinator(
            model, tmp_path / "idx", n_workers=2, calibrate=True
        )
        coordinator.activate(".", store)
        try:
            hit_lists, _, _ = coordinator.query_batch(
                queries, top_k=5, threshold=None, timeout_s=120
            )
            for ref, hits in zip(reference, hit_lists):
                assert _rows_scores(ref) == _rows_scores(hits)
        finally:
            coordinator.close()

    def test_poison_sweep_fails_after_bounded_attempts(
        self, tmp_path, model
    ):
        store, vectors = _fill_store(tmp_path / "idx", 60, shard_size=32)
        faults.configure("serving.worker=raise")  # every attempt raises
        pool = ShardWorkerPool(model, n_workers=2)
        try:
            with pytest.raises(SweepError, match="failed 3 time"):
                pool.sweep(
                    str(store.root), [(0, 60)],
                    np.stack([vectors[0]]), np.array([1]),
                    k=5, threshold=None, calibrate=True, timeout_s=120,
                )
        finally:
            pool.close()

    def test_close_terminates_workers(self, tmp_path, model):
        pool = ShardWorkerPool(model, n_workers=2)
        pids = [w["pid"] for w in pool.workers_info()]
        assert all(w["alive"] for w in pool.workers_info())
        pool.close()
        pool.close()  # idempotent
        import os

        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # ESRCH: no such process


# -- engine integration -----------------------------------------------------


class TestEngineServing:
    def _engine(self, tmp_path, model, workers=2, n=150, shard=64):
        root = tmp_path / "idx"
        store, vectors = _fill_store(root, n, shard_size=shard)
        engine = AsteriaEngine(
            EngineConfig(index_root=str(root), serve_workers=workers),
            model=model,
        )
        return engine, store, vectors

    def test_query_is_generation_tagged_and_exact(self, tmp_path, model):
        engine, store, vectors = self._engine(tmp_path, model)
        queries = _queries(vectors, n=1)
        reference = _reference(model, store, queries, k=5)
        try:
            result = engine.query(
                QueryRequest(encoding=queries[0], top_k=5, threshold=None)
            )
            assert result.generation == "."
            assert result.n_rows == 150
            assert _rows_scores(result.hits) == _rows_scores(reference[0])
            batch = engine.query_batch([
                QueryRequest(encoding=q, top_k=5, threshold=None)
                for q in _queries(vectors, n=3)
            ])
            assert all(r.generation == "." for r in batch)
        finally:
            engine.close()

    def test_pool_needs_the_exact_backend(self, tmp_path, capsys):
        # the tiered sweep is a sliver of the corpus: a pool would only
        # add IPC to it, so the combination is refused up front
        root = str(tmp_path / "idx")
        with pytest.raises(BadRequestError, match="backend 'exact'"):
            EngineConfig(index_root=root, serve_workers=2, backend="ivf-pq")
        assert main(["index", "search", "--model", "m.npz", "--index", root,
                     "--backend", "ivf-pq", "--serve-workers", "2"]) == 6
        assert "serve_workers=2 needs backend 'exact'" in (
            capsys.readouterr().err
        )

    def test_pool_needs_a_durable_index(self, capsys):
        # workers open the store by path: an in-memory one has none
        with pytest.raises(BadRequestError, match="durable index_root"):
            EngineConfig(serve_workers=4)
        assert main(["serve", "--model", "m.npz", "--port", "0",
                     "--serve-workers", "2"]) == 6
        assert "durable index_root" in capsys.readouterr().err

    def test_stats_and_close(self, tmp_path, model):
        engine, _, vectors = self._engine(tmp_path, model)
        try:
            engine.query(QueryRequest(
                encoding=_encoding(0, vectors[0]), top_k=3, threshold=None
            ))
            stats = engine.stats()
            assert stats.serve_workers == 2
            assert stats.active_generation == 0
            assert stats.pool_workers_alive == 2
            assert len(stats.pool_workers) == 2
            assert stats.n_index_swaps == 0
            assert engine.obs.value(
                "repro_serve_worker_queries_total"
            ) >= 1
        finally:
            engine.close()
        assert engine.stats().pool_workers == []
        # close is sticky: queries keep working via the in-process path
        result = engine.query(QueryRequest(
            encoding=_encoding(0, vectors[0]), top_k=3, threshold=None
        ))
        assert result.generation == ""

    def test_manual_swap_retags_new_queries(self, tmp_path, model):
        engine, store, vectors = self._engine(tmp_path, model)
        try:
            coordinator = engine.coordinator
            rel, path = generations.prepare_generation(store.root)
            generations.clone_store(store.root, path)
            new_store = EmbeddingStore.open(path, verify=False)
            extra = np.random.default_rng(9).normal(size=(30, DIM))
            for i, vec in enumerate(extra):
                new_store.add(_encoding(150 + i, vec))
            new_store.flush()
            coordinator.swap_to(rel, store=new_store)
            result = engine.query(QueryRequest(
                encoding=_encoding(0, vectors[0]), top_k=3, threshold=None
            ))
            assert result.generation == rel
            assert result.n_rows == 180
            assert engine.stats().active_generation == 1
            assert engine.stats().n_index_swaps == 1
        finally:
            engine.close()

    def test_ingest_builds_and_swaps_new_generation(self, tmp_path, model):
        engine, store, vectors = self._engine(tmp_path, model)
        try:
            assert engine.coordinator is not None
            result = engine.ingest(IngestRequest(
                corpus_images=2, corpus_seed=5
            ))
            assert result.n_rows_total > 150
            assert generations.read_current(store.root) \
                == "generations/gen-00001"
            query = engine.query(QueryRequest(
                encoding=_encoding(0, vectors[0]), top_k=3, threshold=None
            ))
            assert query.generation == "generations/gen-00001"
            assert query.n_rows == result.n_rows_total
            assert engine.stats().n_index_swaps == 1
            # the flat store (old generation) is untouched on disk:
            # the clone hard-links shards and appends never mutate them
            flat = EmbeddingStore.open(tmp_path / "idx", verify=True)
            assert flat.n_flushed == 150
        finally:
            engine.close()

    def test_hot_swap_keeps_the_quantizer(self, tmp_path, model):
        # the new generation inherits the persisted ANN state its cloned
        # manifest names: after an exact pool's ingest, the first tiered
        # query on that generation quantizes the appended rows, not the
        # corpus
        root = tmp_path / "idx"
        _fill_store(root, 600, shard_size=128)
        query = QueryRequest(
            encoding=_encoding(0, np.zeros(DIM)), top_k=3, threshold=None
        )

        def tiered():
            return AsteriaEngine(
                EngineConfig(index_root=str(root), backend="ivf-pq"),
                model=model,
            )

        first = tiered()
        first.query(query)  # builds + persists the quantizer
        assert first.stats().ann_rows_quantized == 600
        pooled = AsteriaEngine(
            EngineConfig(index_root=str(root), serve_workers=2), model=model
        )
        try:
            appended = pooled.ingest(IngestRequest(
                corpus_images=1, corpus_seed=5
            )).n_rows_total - 600
        finally:
            pooled.close()
        assert appended > 0
        assert generations.read_current(root) == "generations/gen-00001"
        reader = tiered()
        assert reader.query(query).n_rows == 600 + appended
        stats = reader.stats()
        assert stats.ann_persisted is True
        assert stats.ann_rows_quantized == appended

    def test_swap_failpoint_keeps_old_generation_serving(
        self, tmp_path, model
    ):
        engine, store, vectors = self._engine(tmp_path, model)
        try:
            coordinator = engine.coordinator
            rel, path = generations.prepare_generation(store.root)
            generations.clone_store(store.root, path)
            new_store = EmbeddingStore.open(path, verify=False)
            faults.configure("serving.swap=raise")
            with pytest.raises(faults.FaultInjected):
                coordinator.swap_to(rel, store=new_store)
            faults.clear()
            # the abort left the old generation serving, swaps untouched
            result = engine.query(QueryRequest(
                encoding=_encoding(0, vectors[0]), top_k=3, threshold=None
            ))
            assert result.generation == "."
            assert result.n_rows == 150
            assert engine.stats().n_index_swaps == 0
            assert generations.read_current(store.root) is None
        finally:
            engine.close()

    def test_sweep_error_surfaces_as_engine_error(self, tmp_path, model):
        engine, _, vectors = self._engine(tmp_path, model)
        try:
            faults.configure("serving.worker=raise")
            with pytest.raises(EngineError, match="parallel sweep failed"):
                engine.query(QueryRequest(
                    encoding=_encoding(0, vectors[0]), top_k=3,
                    threshold=None,
                ))
        finally:
            faults.clear()
            engine.close()

    def _deadline_engine(self, tmp_path, model):
        root = tmp_path / "idx"
        _, vectors = _fill_store(root, 150, shard_size=64)
        engine = AsteriaEngine(
            EngineConfig(
                index_root=str(root), serve_workers=2,
                request_timeout_ms=100,
            ),
            model=model,
        )
        query = QueryRequest(
            encoding=_encoding(0, vectors[0]), top_k=3, threshold=None
        )
        return engine, query

    def test_pooled_query_past_its_deadline_is_504(self, tmp_path, model):
        engine, query = self._deadline_engine(tmp_path, model)
        try:
            faults.configure("serving.worker=delay:400")
            engine.coordinator  # fork the workers outside the deadline
            with pytest.raises(DeadlineExceededError):
                engine.query(query)
            assert engine.obs.value("repro_request_timeouts_total") == 1
        finally:
            faults.clear()
            engine.close()

    def test_poison_sweep_under_a_deadline_is_500_not_504(
        self, tmp_path, model
    ):
        # three immediate retries fit the deadline with room to spare; a
        # backoff between them would turn the diagnosis into a timeout
        engine, query = self._deadline_engine(tmp_path, model)
        try:
            faults.configure("serving.worker=raise")
            engine.coordinator  # fork the workers outside the deadline
            with pytest.raises(EngineError, match="failed 3 time") as info:
                engine.query(query)
            assert not isinstance(info.value, DeadlineExceededError)
            assert engine.obs.value("repro_request_timeouts_total") == 0
        finally:
            faults.clear()
            engine.close()

    def test_timeout_is_a_type_not_a_substring(
        self, tmp_path, model, monkeypatch
    ):
        # a task error whose own text says "timed out" is still a failure
        missing = tmp_path / "timed out" / "idx"
        pool = ShardWorkerPool(model, n_workers=1)
        try:
            with pytest.raises(SweepError, match="no manifest at") as info:
                pool.sweep(
                    str(missing), [(0, 10)],
                    np.zeros((1, DIM)), np.array([1]),
                    k=5, threshold=None, calibrate=True, timeout_s=120,
                )
        finally:
            pool.close()
        error = info.value
        assert "timed out" in str(error) and "failed 3 time" in str(error)
        assert not isinstance(error, SweepTimeout)

        engine, query = self._deadline_engine(tmp_path, model)

        def failing_sweep(*args, **kwargs):
            raise error

        try:
            monkeypatch.setattr(
                engine.coordinator, "query_batch", failing_sweep
            )
            with pytest.raises(EngineError) as info:
                engine.query(query)
            assert not isinstance(info.value, DeadlineExceededError)
            assert engine.obs.value("repro_request_timeouts_total") == 0
        finally:
            engine.close()


# -- the headline guarantee: uninterrupted stream across a hot swap ---------


class TestHotSwapStorm:
    def test_storm_across_swap_is_generation_consistent(
        self, tmp_path, model
    ):
        root = tmp_path / "idx"
        store, vectors = _fill_store(root, 300, shard_size=64)
        engine = AsteriaEngine(
            EngineConfig(index_root=str(root), serve_workers=2),
            model=model,
        )
        rows_by_generation = {".": 300, "generations/gen-00001": 360}
        errors = []
        observations = []
        stop = threading.Event()

        def storm(worker_id):
            i = 0
            while not stop.is_set():
                try:
                    result = engine.query(QueryRequest(
                        encoding=_encoding(
                            worker_id, vectors[(worker_id * 31 + i) % 300]
                        ),
                        top_k=5, threshold=None,
                    ))
                    # every response names one generation, and its row
                    # count matches that generation exactly -- a torn
                    # merge (rows from both corpora) cannot satisfy this
                    assert result.generation in rows_by_generation
                    assert result.n_rows == rows_by_generation[
                        result.generation
                    ]
                    observations.append(result.generation)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(repr(exc))
                    return
                i += 1

        threads = [
            threading.Thread(target=storm, args=(t,), daemon=True)
            for t in range(4)
        ]
        try:
            coordinator = engine.coordinator
            for thread in threads:
                thread.start()
            # let the storm establish itself on the old generation
            deadline = 100
            while len(observations) < 20 and deadline:
                stop.wait(0.05)
                deadline -= 1
            # build + swap in a new generation mid-stream
            rel, path = generations.prepare_generation(root)
            generations.clone_store(root, path)
            new_store = EmbeddingStore.open(path, verify=False)
            extra = np.random.default_rng(5).normal(size=(60, DIM))
            for i, vec in enumerate(extra):
                new_store.add(_encoding(300 + i, vec))
            new_store.flush()
            before = len(observations)
            coordinator.swap_to(rel, store=new_store)
            # keep the storm going long enough to observe the flip
            deadline = 200
            while deadline and not any(
                g == rel for g in observations[before:]
            ):
                stop.wait(0.05)
                deadline -= 1
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            engine.close()
        assert not errors, errors
        seen = set(observations)
        assert seen == {".", rel}  # both generations served, nothing else
        assert engine.obs.value("repro_index_swaps_total") == 1


# -- HTTP surface -----------------------------------------------------------


class TestServerSurface:
    @pytest.fixture()
    def server(self, tmp_path, model):
        root = tmp_path / "idx"
        _fill_store(root, 150, shard_size=64)
        engine = AsteriaEngine(
            EngineConfig(index_root=str(root), serve_workers=2),
            model=model,
        )
        engine.coordinator  # warm the pool like serve() does
        server = EngineServer(("127.0.0.1", 0), engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        engine.close()
        thread.join(timeout=10)

    def _get(self, server, path):
        with urllib.request.urlopen(server.url + path, timeout=30) as r:
            return r.status, json.loads(r.read())

    def test_healthz_reports_pool(self, server):
        status, body = self._get(server, "/healthz")
        assert status == 200
        assert body["serve_workers"] == 2
        assert body["active_generation"] == 0
        assert body["pool_workers_alive"] == 2
        assert len(body["pool_workers"]) == 2
        assert all(
            set(w) >= {"worker", "pid", "alive"}
            for w in body["pool_workers"]
        )

    def test_stats_report_pool(self, server):
        status, body = self._get(server, "/v1/stats")
        assert status == 200
        assert body["serve_workers"] == 2
        assert body["pool_workers_alive"] == 2
        assert body["n_index_swaps"] == 0

    def test_shutdown_reaps_workers_and_snapshots_counters(
        self, tmp_path, model
    ):
        import os

        root = tmp_path / "idx2"
        _, vectors = _fill_store(root, 150, shard_size=64)
        engine = AsteriaEngine(
            EngineConfig(index_root=str(root), serve_workers=2),
            model=model,
        )
        engine.query(QueryRequest(
            encoding=_encoding(0, vectors[0]), top_k=3, threshold=None
        ))
        pids = [w["pid"] for w in engine.stats().pool_workers]
        assert len(pids) == 2
        server = EngineServer(("127.0.0.1", 0), engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            request = urllib.request.Request(
                server.url + "/v1/shutdown", data=b"{}",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                body = json.loads(response.read())
            assert body["status"] == "shutting down"
            # the final snapshot carries the per-worker sweep counters
            assert "repro_serve_worker_queries_total" in body["stats"]
            # no orphaned children survive the drain
            for pid in pids:
                with pytest.raises(OSError):
                    os.kill(pid, 0)
        finally:
            server.shutdown()
            server.server_close()
            engine.close()
            thread.join(timeout=10)
