"""Tests for the shard-parallel sweep pool (`repro.serving`).

The engine sweeps in process; the pool is kept for the e2e benchmark's
``serving.pool_*`` layer.  Covers range planning (near-equal ranges cut
at shard boundaries), zero-copy range views, the coordinator's merge
(bit for bit with one process), the workers' per-root index cache, and
the supervised pool under kill/raise failpoints (bounded retries).
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

import repro.faults as faults
from repro.core.model import Asteria, AsteriaConfig, FunctionEncoding
from repro.index.ann import BruteForceIndex
from repro.index.store import EmbeddingStore
from repro.serving.coordinator import ServingCoordinator, shard_ranges
from repro.serving.pool import ShardWorkerPool, SweepError, _sweep_setup

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
        layout) per store root: five tasks build it once, tasks naming
        a second root build one more."""
        root = tmp_path / "idx"
        store, vectors = _fill_store(root, 120, shard_size=32)
        new_root = tmp_path / "idx2"
        _fill_store(new_root, 120, shard_size=32)  # same seed, same rows
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
        for store_root, builds in [(root, [120]), (new_root, [120] * 2)]:
            for _ in range(5):
                _, _, partials = sweep((
                    str(store_root), 0, 120, q_vectors, q_counts,
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
