"""Tests for the embedding index subsystem (store, ANN backends, service)."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import Asteria, AsteriaConfig, FunctionEncoding
from repro.evalsuite.vulnsearch import build_firmware_dataset
from repro.index.ann import BruteForceIndex, make_index
from repro.index.search import SearchService
from repro.index.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    EmbeddingStore,
    StoreError,
)
from repro.nn.tensor import stable_sigmoid

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _encoding(i: int, dim: int = 8, arch: str = "x86") -> FunctionEncoding:
    rng = np.random.default_rng(i)
    return FunctionEncoding(
        name=f"sub_{i:x}",
        arch=arch,
        binary_name=f"bin-{i % 3}",
        vector=rng.normal(size=dim),
        callee_count=i % 5,
        ast_size=10 + i,
    )


def _fill(store: EmbeddingStore, n: int, dim: int = 8) -> None:
    for i in range(n):
        store.add(_encoding(i, dim), image_id=f"img/{i % 4}")
    store.flush()


class TestEmbeddingStore:
    def test_create_flush_reopen_roundtrip(self, tmp_path):
        root = tmp_path / "idx"
        store = EmbeddingStore.create(root, dim=8, shard_size=4)
        _fill(store, 10)
        assert len(store) == 10
        assert store.n_shards == 3  # 4 + 4 + 2

        reopened = EmbeddingStore.open(root)
        assert len(reopened) == 10
        assert reopened.dim == 8
        assert np.array_equal(reopened.vectors(), store.vectors())
        assert reopened.vectors().dtype == store.vectors().dtype
        for row in range(10):
            assert reopened.metadata_at(row) == store.metadata_at(row)
            assert np.array_equal(
                reopened.vector_at(row), store.vector_at(row)
            )

    def test_manifest_is_versioned(self, tmp_path):
        root = tmp_path / "idx"
        store = EmbeddingStore.create(root, dim=4)
        _fill(store, 3, dim=4)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["n_rows"] == 3
        assert [s["n_rows"] for s in manifest["shards"]] == [3]

    def test_future_version_rejected(self, tmp_path):
        root = tmp_path / "idx"
        EmbeddingStore.create(root, dim=4)
        manifest_path = root / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="format_version"):
            EmbeddingStore.open(root)

    @pytest.mark.parametrize("drop_dtype", [False, True])
    def test_format_1_manifest_is_a_typed_error(self, tmp_path, drop_dtype):
        # what a pre-format-2 writer left behind: version 1, no dtype,
        # all-in-one shard-NNNNN.npz files this build cannot read
        root = tmp_path / "idx"
        EmbeddingStore.create(root, dim=4)
        manifest_path = root / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        manifest["shards"] = [{"name": "shard-00000.npz", "n_rows": 3}]
        if drop_dtype:
            del manifest["dtype"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError) as excinfo:
            EmbeddingStore.open(root)
        message = str(excinfo.value)
        assert "format_version 1" in message  # found
        assert f"only format_version {FORMAT_VERSION}" in message  # supported
        assert "repro-cli index build" in message  # remedy
        assert "pre-PR-16 checkout" in message

    def test_stale_lsh_ann_entry_is_ignored_with_one_warning(
        self, tmp_path, caplog
    ):
        import logging

        root = tmp_path / "idx"
        store = EmbeddingStore.create(root, dim=8, shard_size=4)
        _fill(store, 6)
        manifest_path = root / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["ann"] = {
            "kind": "lsh", "version": 1, "n_planes": 8, "n_tables": 4,
            "seed": 0, "dim": 8, "n_rows": 6, "file": "ann-lsh.npz",
        }
        manifest_path.write_text(json.dumps(manifest))
        (root / "ann-lsh.npz").write_bytes(b"orphaned hyperplanes")
        with caplog.at_level(logging.WARNING, logger="repro.index.store"):
            reopened = EmbeddingStore.open(root)
        warnings = [r for r in caplog.records if "lsh" in r.getMessage()]
        assert len(warnings) == 1
        assert not reopened.degraded and len(reopened) == 6
        assert reopened.ann == {} and reopened.read_ann_state() is None
        # the configured backend builds from the vectors and persists
        # its own state over the stale manifest entry
        model = Asteria(AsteriaConfig(hidden_dim=8, seed=4))
        service = SearchService(model, reopened, backend="ivf-pq", seed=3)
        assert len(service.query(_encoding(2), top_k=3)) == 3
        assert service.index().rows_quantized == 6
        assert EmbeddingStore.open(root).ann["kind"] == "ivf-pq"

    def test_create_refuses_existing(self, tmp_path):
        root = tmp_path / "idx"
        EmbeddingStore.create(root, dim=4)
        with pytest.raises(StoreError, match="already exists"):
            EmbeddingStore.create(root, dim=4)

    def test_append_after_reopen(self, tmp_path):
        root = tmp_path / "idx"
        store = EmbeddingStore.create(root, dim=8, shard_size=4)
        _fill(store, 5)
        store = EmbeddingStore.open(root)
        store.add(_encoding(99))
        store.flush()
        assert len(store) == 6
        assert EmbeddingStore.open(root).metadata_at(5).name == "sub_63"

    def test_lazy_shard_loading(self, tmp_path):
        root = tmp_path / "idx"
        store = EmbeddingStore.create(root, dim=8, shard_size=2)
        _fill(store, 6)
        reopened = EmbeddingStore.open(root)
        assert not reopened._meta_cache
        reopened.metadata_at(5)  # last shard's metadata only
        assert set(reopened._meta_cache) == {2}

    def test_dim_mismatch_rejected(self, tmp_path):
        store = EmbeddingStore.create(tmp_path / "idx", dim=8)
        with pytest.raises(StoreError, match="shape"):
            store.add(_encoding(0, dim=5))

    def test_in_memory_store(self):
        store = EmbeddingStore.in_memory(dim=8, shard_size=3)
        _fill(store, 7)
        assert len(store) == 7
        assert store.vectors().shape == (7, 8)
        assert store.metadata_at(3).image_id == "img/3"

    def test_unflushed_rows_counted_not_visible(self):
        store = EmbeddingStore.in_memory(dim=8)
        store.add(_encoding(0))
        assert len(store) == 1
        assert store.n_flushed == 0
        store.flush()
        assert store.n_flushed == 1

    def test_encoding_reconstruction(self):
        # float64 stores round-trip vectors bit-exactly; the default
        # float32 round-trip (cast tolerance) is covered in
        # test_index_corpus.py
        store = EmbeddingStore.in_memory(dim=8, dtype="float64")
        original = _encoding(11)
        store.add(original, image_id="img/x")
        store.flush()
        rebuilt = store.metadata_at(0).encoding(store.vector_at(0))
        assert rebuilt.name == original.name
        assert rebuilt.arch == original.arch
        assert rebuilt.binary_name == original.binary_name
        assert rebuilt.callee_count == original.callee_count
        assert rebuilt.ast_size == original.ast_size
        assert np.array_equal(rebuilt.vector, original.vector)


@pytest.fixture(scope="module")
def corpus_model():
    return Asteria(AsteriaConfig(hidden_dim=16, seed=4))


@pytest.fixture(scope="module")
def corpus(corpus_model):
    """Synthetic clustered vectors + callee counts + query encodings."""
    rng = np.random.default_rng(7)
    dim = corpus_model.config.hidden_dim
    centers = rng.normal(size=(6, dim)) * 2.0
    vectors = np.concatenate(
        [center + rng.normal(scale=0.15, size=(30, dim)) for center in centers]
    )
    # callee counts track function identity (homologous functions call the
    # same neighbours), i.e. they follow the clusters
    counts = np.repeat(np.arange(6, dtype=np.int64), 30)
    queries = [
        FunctionEncoding(
            name=f"q{i}", arch="x86", binary_name="query",
            vector=centers[i] + rng.normal(scale=0.1, size=dim),
            callee_count=i,
        )
        for i in range(len(centers))
    ]
    return vectors, counts, queries


class TestBatchedScoring:
    def test_classifier_matrix_matches_per_pair(self, corpus_model, corpus):
        vectors, counts, queries = corpus
        query = queries[0]
        batched = corpus_model.similarity_batch(query, vectors, counts)
        singles = np.array([
            corpus_model.similarity(
                query,
                FunctionEncoding(
                    name="f", arch="x86", binary_name="b",
                    vector=vectors[i], callee_count=int(counts[i]),
                ),
            )
            for i in range(len(vectors))
        ])
        np.testing.assert_allclose(batched, singles, atol=1e-12)

    def test_uncalibrated_matches_woc(self, corpus_model, corpus):
        vectors, _counts, queries = corpus
        query = queries[1]
        batched = corpus_model.similarity_batch(
            query, vectors, calibrate=False
        )
        singles = np.array([
            corpus_model.ast_similarity(query.vector, vectors[i])
            for i in range(len(vectors))
        ])
        np.testing.assert_allclose(batched, singles, atol=1e-12)

    def test_calibration_requires_counts(self, corpus_model, corpus):
        vectors, _counts, queries = corpus
        with pytest.raises(ValueError, match="callee_counts"):
            corpus_model.similarity_batch(queries[0], vectors)

    def test_regression_head_batched(self, corpus):
        vectors, _counts, queries = corpus
        model = Asteria(AsteriaConfig(hidden_dim=16, head="regression"))
        query = queries[2]
        batched = model.siamese.similarity_from_matrix(query.vector, vectors)
        singles = np.array([
            model.siamese.similarity_from_vectors(query.vector, vectors[i])
            for i in range(len(vectors))
        ])
        np.testing.assert_allclose(batched, singles, atol=1e-12)


#: Child program: minor faults per swept row of a warm 7-query sweep over
#: store-sized blocks (each scored as one full chunk plus a remainder,
#: the shape of a real sweep), on the main thread and on a worker thread.
#: A fresh interpreter, because glibc raises its mmap and trim thresholds
#: as a process frees large blocks: the suite's own allocation history
#: would hide the faults a newly started server takes.
_FAULTS_CHILD = """
import json, resource, threading
import numpy as np
from repro.core.model import Asteria, AsteriaConfig, FunctionEncoding
from repro.index.ann import SCORE_BLOCK_ROWS, BruteForceIndex
from repro.index.store import ShardedMatrix

dim, n_blocks = 16, 8
rng = np.random.default_rng(0)
view = ShardedMatrix(dim, np.float32, [
    rng.normal(size=(SCORE_BLOCK_ROWS, dim)).astype(np.float32)
    for _ in range(n_blocks)
])
index = BruteForceIndex(
    Asteria(AsteriaConfig(hidden_dim=dim)), view,
    rng.integers(0, 5, size=len(view)),
)
queries = [
    FunctionEncoding(
        name=f"q{i}", arch="x86", binary_name="query",
        vector=rng.normal(size=dim), callee_count=i % 5,
    )
    for i in range(7)
]
faults_per_row = {}

def sweep(label):
    index.top_k_batch(queries, k=10)  # warm-up
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    index.top_k_batch(queries, k=10)
    after = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    faults_per_row[label] = (after - before) / len(view)

sweep("main")
worker = threading.Thread(target=sweep, args=("worker",))
worker.start()
worker.join()
print(json.dumps(faults_per_row))
"""


def _score_chunk(q: int, h: int) -> int:
    """Corpus rows per scoring chunk, as ``similarity_from_matrix`` sizes
    them."""
    return max(64, 800_000 // (q * h))


def _reference_scores(siamese, query, vectors):
    """``similarity_from_matrix`` as first written: the ``|Q - V|`` tensor
    is a fresh pair of temporaries in every chunk.  The chunking is part
    of the reference because BLAS may sum a row's dot product in another
    order when the row sits in another block shape."""
    queries = np.asarray(query, dtype=vectors.dtype)
    if queries.ndim == 1:
        queries = queries[None, :]
    q, h = queries.shape
    w = siamese.w.data.astype(vectors.dtype, copy=False)
    chunk = _score_chunk(q, h)
    out = []
    for start in range(0, vectors.shape[0], chunk):
        block = vectors[start:start + chunk]
        diff = np.abs(queries[:, None, :] - block[None, :, :])
        if siamese.literal_sigmoid:
            logits = diff @ w[:h]
            for c in range(2):
                logits[:, :, c] += (queries * w[h:, c]) @ block.T
            logits = 1.0 / (1.0 + np.exp(-logits))
            exps = np.exp(logits - logits.max(axis=2, keepdims=True))
            out.append(exps[:, :, 1] / exps.sum(axis=2))
        else:
            w_abs = w[:h, 1] - w[:h, 0]
            w_prod = (w[h:, 1] - w[h:, 0]) * queries
            out.append(stable_sigmoid(diff @ w_abs + w_prod @ block.T))
    scores = np.concatenate(out, axis=1)
    return scores[0] if np.ndim(query) == 1 else scores


@st.composite
def _scoring_cases(draw):
    """(q, h, n, dtype, literal, one_d, seed) with ``n`` on both sides of
    a chunk boundary, capped so a case stays a few milliseconds."""
    one_d = draw(st.booleans())
    q = 1 if one_d else draw(st.integers(1, 9))
    h = draw(st.sampled_from([4, 16]))
    chunk = _score_chunk(q, h)
    sizes = [1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3]
    n = draw(st.sampled_from([size for size in sizes if size <= 50_010]))
    return (
        q, h, n, draw(st.sampled_from([np.float32, np.float64])),
        draw(st.booleans()), one_d, draw(st.integers(0, 2 ** 16)),
    )


class TestScoringScratch:
    """The reused ``|Q - V|`` scratch of ``similarity_from_matrix``."""

    @settings(max_examples=40, deadline=None)
    @given(_scoring_cases())
    def test_scores_equal_the_reference_bit_for_bit(self, case):
        q, h, n, dtype, literal, one_d, seed = case
        siamese = Asteria(AsteriaConfig(hidden_dim=h)).siamese
        siamese.literal_sigmoid = literal
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, h)).astype(dtype)
        queries = rng.normal(size=h if one_d else (q, h))
        scores = siamese.similarity_from_matrix(queries, vectors)
        assert scores.dtype == dtype
        assert scores.shape == ((n,) if one_d else (q, n))
        assert np.array_equal(
            scores, _reference_scores(siamese, queries, vectors)
        )

    @pytest.mark.skipif(
        not hasattr(resource, "RUSAGE_THREAD"),
        reason="per-thread fault counts need RUSAGE_THREAD",
    )
    def test_warm_sweep_takes_no_page_faults(self):
        """Regression: per-chunk temporaries above the allocator's mmap
        threshold cost ~0.19 (main thread) / ~0.10 (worker thread) minor
        faults per swept row -- more system time than scoring time."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTS_CHILD],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        faults_per_row = json.loads(proc.stdout)
        assert faults_per_row["main"] < 0.01, faults_per_row
        assert faults_per_row["worker"] < 0.01, faults_per_row


class TestAnnBackends:
    def test_brute_force_matches_sorted_scores(self, corpus_model, corpus):
        vectors, counts, queries = corpus
        index = BruteForceIndex(corpus_model, vectors, counts)
        query = queries[0]
        neighbors = index.top_k(query, k=5)
        scores = corpus_model.similarity_batch(query, vectors, counts)
        expected = sorted(
            range(len(vectors)), key=lambda i: (-scores[i], i)
        )[:5]
        assert [n.row for n in neighbors] == expected
        assert all(
            n.score == pytest.approx(scores[n.row]) for n in neighbors
        )

    def test_threshold_filters(self, corpus_model, corpus):
        vectors, counts, queries = corpus
        index = BruteForceIndex(corpus_model, vectors, counts)
        neighbors = index.top_k(queries[0], k=None, threshold=0.5)
        scores = corpus_model.similarity_batch(queries[0], vectors, counts)
        assert len(neighbors) == int((scores >= 0.5).sum())
        assert all(n.score >= 0.5 for n in neighbors)

    @pytest.mark.parametrize("backend", ["kdtree", "lsh"])
    def test_make_index_unknown_backend(self, corpus_model, corpus, backend):
        from repro.api.errors import BadRequestError

        vectors, counts, _queries = corpus
        with pytest.raises(
            BadRequestError,
            match="unknown backend .* \\(choose from exact, ivf-pq\\)",
        ):
            make_index(backend, corpus_model, vectors, counts)

    def test_empty_index(self, corpus_model):
        index = BruteForceIndex(
            corpus_model, np.zeros((0, 16)), np.zeros(0, dtype=np.int64)
        )
        assert index.top_k(_encoding(0, dim=16), k=5) == []


class TestSearchService:
    @pytest.fixture(scope="class")
    def firmware(self):
        return build_firmware_dataset(n_images=4, seed=3)

    @pytest.fixture(scope="class")
    def vuln_search(self, make_vuln_search):
        return make_vuln_search(threshold=0.8)

    @pytest.fixture(scope="class")
    def service(self, vuln_search, firmware):
        return vuln_search.build_index(firmware)

    def test_ingest_counts(self, service, firmware):
        # every decompiled function above the size floor is stored once
        assert len(service.store) > 0
        image_ids = {
            meta.image_id for meta in service.store.iter_metadata()
        }
        unpackable = {
            image.identifier
            for image in firmware.images if not image.unknown_format
        }
        assert image_ids == unpackable

    def test_query_returns_metadata(self, service, vuln_search):
        library = vuln_search.encode_library()
        _entry, encoding = sorted(library.items())[0][1]
        hits = service.query(encoding, top_k=5)
        assert len(hits) == 5
        assert hits[0].score >= hits[-1].score
        for hit in hits:
            assert hit.name.startswith("sub_")
            assert hit.image_id

    def test_index_path_matches_exhaustive(
        self, vuln_search, firmware, service
    ):
        report_ex, cands_ex = vuln_search.search_exhaustive(firmware)
        report_ix, cands_ix = vuln_search.search(firmware, service=service)

        def key(c):
            return (c.entry.cve_id, c.image.identifier, c.binary_name,
                    c.function_name, c.confirmed)

        assert {key(c) for c in cands_ex} == {key(c) for c in cands_ix}
        assert report_ex.total_confirmed() == report_ix.total_confirmed()
        assert report_ex.n_functions == report_ix.n_functions
        for row_ex, row_ix in zip(report_ex.rows, report_ix.rows):
            assert row_ex.n_confirmed == row_ix.n_confirmed
            assert row_ex.vendors == row_ix.vendors
            assert row_ex.models == row_ix.models
        scores_ex = sorted(round(c.score, 9) for c in cands_ex)
        scores_ix = sorted(round(c.score, 9) for c in cands_ix)
        assert scores_ex == pytest.approx(scores_ix)

    def test_top_k_caps_candidates(self, vuln_search, firmware, service):
        _report, cands = vuln_search.search(firmware, service=service,
                                            top_k=1)
        per_cve = {}
        for c in cands:
            per_cve[c.entry.cve_id] = per_cve.get(c.entry.cve_id, 0) + 1
        assert all(count <= 1 for count in per_cve.values())

    def test_persistent_index_same_results(
        self, vuln_search, firmware, service, tmp_path, trained_model
    ):
        from repro.index.store import EmbeddingStore

        root = tmp_path / "fw-index"
        vuln_search.build_index(firmware, root=root)
        reopened = SearchService(trained_model, EmbeddingStore.open(root))
        library = vuln_search.encode_library()
        _entry, encoding = sorted(library.items())[0][1]
        fresh = [(h.row, h.name, round(h.score, 12))
                 for h in service.query(encoding, top_k=5)]
        durable = [(h.row, h.name, round(h.score, 12))
                   for h in reopened.query(encoding, top_k=5)]
        assert fresh == durable
