"""Corpus-scale read path: mmap float32 shards, batched top-k.

Covers the store (configurable dtype, memory-mapped ``.npy`` vector
shards, zero-copy :class:`ShardedMatrix` view), argpartition top-k
selection (tie-for-tie identical to the lexsort reference) and batched
multi-query scoring.  The persisted/incremental ANN state life cycle is
covered in ``test_index_quant.py``.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.faults as faults
from repro.core.model import Asteria, AsteriaConfig, FunctionEncoding
from repro.index.ann import BruteForceIndex, select_top_k
from repro.index.quant import IvfPqIndex
from repro.index.search import SearchService
from repro.index.store import EmbeddingStore, ShardedMatrix, StoreError


def _encoding(i: int, dim: int = 8, vector=None) -> FunctionEncoding:
    rng = np.random.default_rng(i)
    return FunctionEncoding(
        name=f"sub_{i:x}",
        arch="x86",
        binary_name=f"bin-{i % 3}",
        vector=rng.normal(size=dim) if vector is None else vector,
        callee_count=i % 5,
        ast_size=10 + i,
    )


def _fill(store: EmbeddingStore, n: int, dim: int = 8) -> None:
    for i in range(n):
        store.add(_encoding(i, dim), image_id=f"img/{i % 4}")
    store.flush()


@pytest.fixture(scope="module")
def corpus_model():
    return Asteria(AsteriaConfig(hidden_dim=16, seed=4))


@pytest.fixture(scope="module")
def clustered():
    """Clustered vectors + aligned callee counts + one query per cluster."""
    rng = np.random.default_rng(11)
    dim = 16
    centers = rng.normal(size=(5, dim)) * 2.0
    vectors = np.concatenate(
        [c + rng.normal(scale=0.15, size=(24, dim)) for c in centers]
    )
    counts = np.repeat(np.arange(5, dtype=np.int64), 24)
    queries = [
        FunctionEncoding(
            name=f"q{i}", arch="x86", binary_name="query",
            vector=centers[i] + rng.normal(scale=0.1, size=dim),
            callee_count=i,
        )
        for i in range(5)
    ]
    return vectors, counts, queries


def _same_ranking(a, b, rel=1e-5):
    """Same rows in the same order; scores equal to float noise."""
    assert [n.row for n in a] == [n.row for n in b]
    assert [n.score for n in a] == pytest.approx(
        [n.score for n in b], rel=rel, abs=1e-7
    )


# -- ShardedMatrix ---------------------------------------------------------


class TestShardedMatrix:
    def test_view_concatenates_blocks(self):
        a = np.arange(12, dtype=np.float32).reshape(4, 3)
        b = np.arange(12, 21, dtype=np.float32).reshape(3, 3)
        view = ShardedMatrix(3, np.float32, [a, b])
        assert view.shape == (7, 3)
        assert len(view) == 7
        assert np.array_equal(np.asarray(view), np.concatenate([a, b]))

    def test_row_and_fancy_indexing_cross_shards(self):
        blocks = [np.full((2, 2), i, dtype=np.float64) for i in range(4)]
        view = ShardedMatrix(2, np.float64, blocks)
        assert view[5][0] == 2.0
        taken = view.take([0, 3, 7, 3])
        assert taken.shape == (4, 2)
        assert list(taken[:, 0]) == [0.0, 1.0, 3.0, 1.0]
        assert np.array_equal(view[1:4], np.asarray(view)[1:4])

    def test_append_extends_without_copy(self):
        a = np.ones((2, 2))
        view = ShardedMatrix(2, np.float64, [a])
        view.append_block(np.zeros((3, 2)))
        assert view.shape == (5, 2)
        # the first block is the exact same object: no re-stack happened
        assert next(view.iter_blocks())[1] is a

    def test_block_shape_checked(self):
        view = ShardedMatrix(4, np.float32)
        with pytest.raises(StoreError, match="does not fit"):
            view.append_block(np.zeros((2, 3)))

    def test_take_wraps_negative_and_rejects_out_of_range(self):
        blocks = [np.arange(8, dtype=np.float64).reshape(4, 2)]
        view = ShardedMatrix(2, np.float64, blocks)
        assert np.array_equal(view.take([-1])[0], blocks[0][3])
        assert np.array_equal(view[[-4]][0], blocks[0][0])
        with pytest.raises(IndexError, match="10 out of range"):
            view.take([0, 10])
        with pytest.raises(IndexError, match="-5 out of range"):
            view.take([-5])

    def test_snapshot_does_not_grow_with_source(self):
        view = ShardedMatrix(2, np.float64, [np.ones((2, 2))])
        frozen = view.snapshot()
        view.append_block(np.zeros((3, 2)))
        assert view.shape == (5, 2)
        assert frozen.shape == (2, 2)

    def test_resident_accounting_ignores_mmaps(self, tmp_path):
        heap = np.ones((4, 2))
        np.save(tmp_path / "b.npy", np.zeros((4, 2)))
        mapped = np.load(tmp_path / "b.npy", mmap_mode="r")
        view = ShardedMatrix(2, np.float64, [heap, mapped])
        assert view.resident_nbytes == heap.nbytes
        assert view.mmapped


# -- dtype round-trips & mmap ---------------------------------------------


class TestStoreDtype:
    def test_default_dtype_is_float32(self, tmp_path):
        store = EmbeddingStore.create(tmp_path / "idx", dim=8)
        assert store.dtype == np.float32
        _fill(store, 5)
        reopened = EmbeddingStore.open(tmp_path / "idx")
        assert reopened.dtype == np.float32
        assert reopened.vectors().dtype == np.float32

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_round_trip_within_cast_tolerance(self, tmp_path, dtype):
        store = EmbeddingStore.create(tmp_path / "idx", dim=8, dtype=dtype)
        originals = [_encoding(i) for i in range(7)]
        for encoding in originals:
            store.add(encoding)
        store.flush()
        reopened = EmbeddingStore.open(tmp_path / "idx")
        for i, original in enumerate(originals):
            got = reopened.vector_at(i)
            if dtype == "float64":
                assert np.array_equal(got, original.vector)
            else:
                np.testing.assert_allclose(
                    got, original.vector, rtol=1e-6, atol=1e-7
                )

    def test_unknown_dtype_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="dtype"):
            EmbeddingStore.create(tmp_path / "idx", dim=8, dtype="float16")

    def test_mmap_open_is_lazy_and_resident_free(self, tmp_path):
        store = EmbeddingStore.create(tmp_path / "idx", dim=8, shard_size=4)
        _fill(store, 12)
        reopened = EmbeddingStore.open(tmp_path / "idx")
        view = reopened.vectors()
        assert view.mmapped
        assert view.resident_nbytes == 0
        footprint = reopened.memory_footprint()
        assert footprint["mmap"]
        assert footprint["dtype"] == "float32"
        assert footprint["vector_bytes"] == 12 * 8 * 4

    def test_float32_resident_memory_at_least_4x_below_float64(
        self, tmp_path
    ):
        dim, n = 32, 64
        in_mem = EmbeddingStore.in_memory(dim=dim, dtype="float64")
        durable = EmbeddingStore.create(tmp_path / "idx32", dim=dim)
        for i in range(n):
            in_mem.add(_encoding(i, dim))
            durable.add(_encoding(i, dim))
        in_mem.flush()
        durable.flush()
        in_mem.vectors()
        baseline = in_mem.memory_footprint()["resident_bytes"]
        assert baseline >= n * dim * 8

        mapped = EmbeddingStore.open(tmp_path / "idx32")
        mapped.vectors()
        mapped.callee_counts()
        resident = mapped.memory_footprint()["resident_bytes"]
        # float32 halves the bytes and mmap keeps vectors off the heap:
        # well past the required 4x drop
        assert resident * 4 <= baseline

    def test_score_equivalence_float32_vs_float64(
        self, tmp_path, corpus_model, clustered
    ):
        vectors, counts, queries = clustered
        stores = {}
        for dtype in ("float32", "float64"):
            store = EmbeddingStore.create(
                tmp_path / dtype, dim=16, shard_size=32, dtype=dtype
            )
            for i in range(len(vectors)):
                store.add(_encoding(i, 16, vector=vectors[i]))
            store.flush()
            stores[dtype] = EmbeddingStore.open(tmp_path / dtype)
        idx32 = BruteForceIndex(
            corpus_model, stores["float32"].vectors(),
            stores["float32"].callee_counts(),
        )
        idx64 = BruteForceIndex(
            corpus_model, stores["float64"].vectors(),
            stores["float64"].callee_counts(),
        )
        for query in queries:
            a = idx32.top_k(query, k=10)
            b = idx64.top_k(query, k=10)
            assert [n.row for n in a] == [n.row for n in b]
            assert [n.score for n in a] == pytest.approx(
                [n.score for n in b], rel=1e-4, abs=1e-5
            )

    def test_mmap_vs_in_memory_equivalence(
        self, tmp_path, corpus_model, clustered
    ):
        vectors, counts, queries = clustered
        durable = EmbeddingStore.create(
            tmp_path / "idx", dim=16, shard_size=16
        )
        ephemeral = EmbeddingStore.in_memory(dim=16, shard_size=16)
        for i in range(len(vectors)):
            durable.add(_encoding(i, 16, vector=vectors[i]))
            ephemeral.add(_encoding(i, 16, vector=vectors[i]))
        durable.flush()
        ephemeral.flush()
        mapped = EmbeddingStore.open(tmp_path / "idx")
        assert mapped.vectors().mmapped
        assert not ephemeral.vectors().mmapped
        idx_m = BruteForceIndex(
            corpus_model, mapped.vectors(), mapped.callee_counts()
        )
        idx_e = BruteForceIndex(
            corpus_model, ephemeral.vectors(), ephemeral.callee_counts()
        )
        for query in queries:
            # identical bytes on both sides -> identical scores
            a, b = idx_m.top_k(query, k=10), idx_e.top_k(query, k=10)
            assert [(n.row, n.score) for n in a] \
                == [(n.row, n.score) for n in b]


# -- incremental append ----------------------------------------------------


class TestIncrementalAppend:
    def test_flush_appends_blocks_without_restacking(self):
        store = EmbeddingStore.in_memory(dim=8, shard_size=4)
        _fill(store, 8)
        view = store.vectors()
        first_block = next(view.iter_blocks())[1]
        counts = store.callee_counts()
        for i in range(8, 12):
            store.add(_encoding(i))
        store.flush()
        assert store.vectors() is view  # same view object, extended
        assert view.shape == (12, 8)
        assert next(view.iter_blocks())[1] is first_block  # untouched
        assert store.callee_counts().shape == (12,)
        assert np.array_equal(store.callee_counts()[:8], counts)

    def test_index_stays_consistent_when_store_grows(self, corpus_model):
        # an index snapshots the view at construction: rows flushed
        # afterwards must not leak into (or crash) its scoring
        store = EmbeddingStore.in_memory(dim=16, shard_size=8)
        _fill(store, 10, dim=16)
        index = BruteForceIndex(
            corpus_model, store.vectors(), store.callee_counts()
        )
        assert len(index) == 10
        for i in range(10, 15):
            store.add(_encoding(i, 16))
        store.flush()
        assert len(store) == 15
        assert len(index) == 10  # the snapshot did not grow
        query = _encoding(99, 16)
        neighbors = index.top_k(query, k=20)
        assert len(neighbors) == 10
        assert all(n.row < 10 for n in neighbors)

    def test_append_after_reopen_preserves_rows(self, tmp_path):
        store = EmbeddingStore.create(tmp_path / "idx", dim=8, shard_size=4)
        _fill(store, 6)
        reopened = EmbeddingStore.open(tmp_path / "idx")
        before = np.asarray(reopened.vectors()).copy()
        for i in range(6, 10):
            reopened.add(_encoding(i))
        reopened.flush()
        final = EmbeddingStore.open(tmp_path / "idx")
        assert len(final) == 10
        assert np.array_equal(np.asarray(final.vectors())[:6], before)
        assert final.metadata_at(9).name == _encoding(9).name


@st.composite
def _row_sets(draw):
    shard_size = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3 * shard_size))  # 1-3 shards
    text = st.text(
        st.characters(blacklist_categories=("Cs",)), max_size=6
    )  # "" and non-ASCII included
    return {
        "shard_size": shard_size,
        "dtype": draw(st.sampled_from(["float32", "float64"])),
        "seed": draw(st.integers(0, 2**16)),
        "rows": [
            tuple(draw(text) for _column in range(4))
            + (draw(st.integers(0, 50)), draw(st.integers(0, 10**6)))
            for _row in range(n)
        ],
    }


def _files(root: Path) -> dict:
    return {
        path.name: path.read_bytes()
        for path in sorted(root.iterdir()) if path.name != "manifest.json"
    }


class TestFlushIsAppendRows:
    """``flush()`` is ``append_rows`` of the buffer: one shard-cutting
    loop, so the two entry points cannot drift apart on disk."""

    @settings(max_examples=60, deadline=None)
    @given(_row_sets())
    def test_same_rows_give_the_same_bytes(self, case):
        rows, dim = case["rows"], 3
        vectors = np.random.default_rng(case["seed"]).normal(
            size=(len(rows), dim)
        )
        with tempfile.TemporaryDirectory() as tmp:
            stores = [
                EmbeddingStore.create(
                    Path(tmp) / name, dim=dim, dtype=case["dtype"],
                    shard_size=case["shard_size"],
                )
                for name in ("buffered", "bulk")
            ]
            for vector, (name, binary, arch, image, count, size) in zip(
                vectors, rows
            ):
                stores[0].add(
                    FunctionEncoding(
                        name=name, arch=arch, binary_name=binary,
                        vector=vector, callee_count=count, ast_size=size,
                    ),
                    image_id=image,
                )
            assert stores[0].flush() == len(rows)
            columns = list(zip(*rows))
            assert stores[1].append_rows(
                vectors, callee_counts=columns[4], ast_sizes=columns[5],
                names=list(columns[0]), binary_names=list(columns[1]),
                arches=list(columns[2]), image_ids=list(columns[3]),
            ) == len(rows)
            assert _files(stores[0].root) == _files(stores[1].root)
            manifests = [
                json.loads((store.root / "manifest.json").read_text())
                for store in stores
            ]
            assert manifests[0] == manifests[1]
            assert len(manifests[0]["shards"]) == -(-len(rows) // case["shard_size"])

    @pytest.mark.parametrize("hit", [1, 2, 3])
    def test_flush_that_raises_keeps_the_unwritten_rows(self, tmp_path, hit):
        """A failed shard write leaves buffered exactly the rows no
        shard holds; retrying flush() lands every row once."""
        store = EmbeddingStore.create(tmp_path / "idx", dim=8, shard_size=4)
        for i in range(12):  # a 3-shard flush
            store.add(_encoding(i))
        faults.configure(f"store.flush.pre_rename=raise@{hit}*1")
        try:
            with pytest.raises(faults.FaultInjected):
                store.flush()
        finally:
            faults.clear()
        assert store.n_shards == hit - 1
        assert (store.n_flushed, len(store)) == (4 * (hit - 1), 12)
        assert store.flush() == 12 - 4 * (hit - 1)
        reopened = EmbeddingStore.open(tmp_path / "idx")
        assert not reopened.degraded
        assert [m.name for m in reopened.iter_metadata()] == [
            _encoding(i).name for i in range(12)
        ]
        expected = np.stack([_encoding(i).vector for i in range(12)])
        assert np.array_equal(
            np.asarray(reopened.vectors()), expected.astype(np.float32)
        )


def _edit_manifest(root: Path, edit) -> None:
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


class TestChecksumIsRequired:
    """A manifest entry that names no sha256 is unverifiable, so its
    file is not served: deleting one key must not turn verification off."""

    def test_shard_without_digest_is_quarantined(self, tmp_path):
        root = tmp_path / "idx"
        _fill(EmbeddingStore.create(root, dim=8, shard_size=4), 10)
        baseline = np.asarray(EmbeddingStore.open(root).vectors())
        _edit_manifest(root, lambda m: m["shards"][1].pop("sha256"))
        shard = root / "shard-00001.npy"
        shard.write_bytes(shard.read_bytes()[:-16])  # torn write
        store = EmbeddingStore.open(root)
        assert store.degraded
        assert store.quarantined == ["shard-00001", "shard-00002"]
        assert np.array_equal(np.asarray(store.vectors()), baseline[:4])

    @pytest.mark.parametrize("damage", ["truncated", "stale"])
    def test_ann_state_without_digest_is_rebuilt(self, tmp_path, damage):
        root = tmp_path / "idx"
        store = EmbeddingStore.create(root, dim=8, shard_size=4)
        _fill(store, 6)
        params = {"kind": "ivf-pq", "n_rows": 6}
        store.write_ann_state(params, {"codes": np.zeros(6)})
        path = root / "ann-ivf-pq.npz"
        older = path.read_bytes()  # a valid archive the manifest no longer means
        store.write_ann_state(params, {"codes": np.ones(6)})
        _edit_manifest(root, lambda m: m["ann"].pop("sha256"))
        path.write_bytes(
            older if damage == "stale" else path.read_bytes()[:-16]
        )
        assert EmbeddingStore.open(root).read_ann_state() is None


# -- argpartition selection ------------------------------------------------


class TestSelectTopK:
    def test_matches_lexsort_with_ties(self):
        scores = np.array([0.5, 0.9, 0.9, 0.1, 0.9, 0.5, 0.9])
        rows = np.arange(scores.size)
        for k in (1, 2, 3, 4, 5, 7, 10, None):
            want = np.lexsort((rows, -scores))
            want = want[: scores.size if k is None else k]
            got = select_top_k(scores, rows, k)
            assert list(got) == list(want), k

    def test_matches_lexsort_fuzz(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            n = int(rng.integers(1, 60))
            # quantised scores force plenty of exact ties
            scores = rng.integers(0, 5, size=n) / 4.0
            rows = rng.permutation(n * 2)[:n]
            k = int(rng.integers(1, n + 2))
            want = np.lexsort((rows, -scores))[:k]
            got = select_top_k(scores, rows, k)
            assert list(got) == list(want)

    def test_k_zero_and_empty(self):
        assert select_top_k(np.array([1.0]), np.array([0]), 0).size == 0

    def test_index_top_k_ties_break_by_row(self, corpus_model):
        # identical vectors -> identical scores -> row order decides
        vector = np.ones(16)
        vectors = np.stack([vector] * 6)
        counts = np.zeros(6, dtype=np.int64)
        index = BruteForceIndex(corpus_model, vectors, counts)
        query = FunctionEncoding(
            name="q", arch="x86", binary_name="b", vector=vector,
            callee_count=0,
        )
        neighbors = index.top_k(query, k=4)
        assert [n.row for n in neighbors] == [0, 1, 2, 3]


# -- batched multi-query top-k ---------------------------------------------


class TestTopKBatch:
    def test_brute_force_batch_matches_serial(self, corpus_model, clustered):
        vectors, counts, queries = clustered
        index = BruteForceIndex(corpus_model, vectors, counts)
        serial = [index.top_k(q, k=6) for q in queries]
        batched = index.top_k_batch(queries, k=6)
        for a, b in zip(serial, batched):
            _same_ranking(a, b)

    def test_ivf_pq_batch_matches_serial(self, corpus_model, clustered):
        vectors, counts, queries = clustered
        index = IvfPqIndex(corpus_model, vectors, counts, seed=5)
        serial = [index.top_k(q, k=6) for q in queries]
        batched = index.top_k_batch(queries, k=6)
        for a, b in zip(serial, batched):
            _same_ranking(a, b)

    def test_batch_threshold_and_empty(self, corpus_model, clustered):
        vectors, counts, queries = clustered
        index = BruteForceIndex(corpus_model, vectors, counts)
        batched = index.top_k_batch(queries, k=None, threshold=0.5)
        for q, neighbors in zip(queries, batched):
            reference = index.top_k(q, k=None, threshold=0.5)
            _same_ranking(reference, neighbors)
        assert index.top_k_batch([], k=5) == []

    def test_batch_on_empty_index(self, corpus_model, clustered):
        _vectors, _counts, queries = clustered
        index = BruteForceIndex(
            corpus_model, np.zeros((0, 16)), np.zeros(0, dtype=np.int64)
        )
        assert index.top_k_batch(queries, k=5) == [[] for _ in queries]

    def test_service_query_batch_matches_query(
        self, corpus_model, clustered
    ):
        vectors, counts, queries = clustered
        store = EmbeddingStore.in_memory(dim=16, shard_size=32)
        for i in range(len(vectors)):
            store.add(
                _encoding(i, 16, vector=vectors[i]), image_id="img/a"
            )
        store.flush()
        service = SearchService(corpus_model, store)
        serial = [service.query(q, top_k=5) for q in queries]
        batched = service.query_batch(queries, top_k=5)
        for a, b in zip(serial, batched):
            assert [h.row for h in a] == [h.row for h in b]
            assert [h.name for h in a] == [h.name for h in b]
            assert [h.score for h in a] == pytest.approx(
                [h.score for h in b], rel=1e-5, abs=1e-7
            )
