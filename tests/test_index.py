"""Tests for the embedding index subsystem (store, ANN backends, and the
Table IV search through the engine's index)."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.index.ann as ann
from repro.api import AsteriaEngine, EngineConfig, IngestRequest, QueryRequest
from repro.core.model import Asteria, AsteriaConfig, FunctionEncoding
from repro.core.siamese import _PASS_BYTES, _tile_rows
from repro.evalsuite.vulnsearch import build_firmware_dataset
from repro.index.ann import BruteForceIndex, make_index
from repro.index.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    EmbeddingStore,
    ShardedMatrix,
    StoreError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import trace

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
                reopened.vectors().row(row), store.vectors().row(row)
            )

    def test_manifest_is_versioned(self, tmp_path):
        root = tmp_path / "idx"
        store = EmbeddingStore.create(root, dim=4)
        _fill(store, 3, dim=4)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["n_rows"] == 3
        assert [s["n_rows"] for s in manifest["shards"]] == [3]

    def test_manifest_is_compact_and_an_indented_one_still_opens(
        self, tmp_path
    ):
        root = tmp_path / "idx"
        store = EmbeddingStore.create(root, dim=8, shard_size=4)
        _fill(store, 6)
        text = (root / MANIFEST_NAME).read_text()
        assert "\n" not in text and ": " not in text
        # the indented form earlier versions wrote
        (root / MANIFEST_NAME).write_text(
            json.dumps(json.loads(text), indent=2, sort_keys=True)
        )
        reopened = EmbeddingStore.open(root)
        assert not reopened.quarantined
        assert len(reopened) == 6
        assert np.array_equal(reopened.vectors(), store.vectors())
        assert reopened.metadata_at(5) == store.metadata_at(5)

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

    def test_stale_lsh_ann_entry_is_harmless(self, tmp_path):
        """A manifest still naming the removed lsh backend's state needs
        no special case: exact never reads ANN state, and ivf-pq rejects
        a foreign ``kind``, rebuilds and overwrites the entry."""
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
        model = Asteria(AsteriaConfig(hidden_dim=8, seed=4))
        request = QueryRequest(encoding=_encoding(2), top_k=3, threshold=None)
        for backend in ("exact", "ivf-pq"):
            engine = AsteriaEngine(
                EngineConfig(index_root=str(root), backend=backend, seed=3),
                model=model,
            )
            assert len(engine.query(request).hits) == 3
            assert not engine.stats().degraded
        assert engine.stats().ann_rows_quantized == 6
        assert engine.store.ann["kind"] == "ivf-pq"
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
        with pytest.raises(IndexError, match="row 0 out of range"):
            store.metadata_at(0)
        store.flush()
        assert store.n_flushed == 1
        assert store.metadata_at(0).name == _encoding(0).name
        for row in (1, -1):
            with pytest.raises(IndexError, match=f"row {row} out of range"):
                store.metadata_at(row)

    def test_encoding_reconstruction(self):
        # float64 stores round-trip vectors bit-exactly; the default
        # float32 round-trip (cast tolerance) is covered in
        # test_index_corpus.py
        store = EmbeddingStore.in_memory(dim=8, dtype="float64")
        original = _encoding(11)
        store.add(original, image_id="img/x")
        store.flush()
        rebuilt = store.metadata_at(0).encoding(store.vectors().row(0))
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
        batched = corpus_model.similarity_matrix([query], vectors, counts)[0]
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
        batched = corpus_model.similarity_matrix(
            [query], vectors, calibrate=False
        )[0]
        singles = np.array([
            corpus_model.ast_similarity(query.vector, vectors[i])
            for i in range(len(vectors))
        ])
        np.testing.assert_allclose(batched, singles, atol=1e-12)

    def test_calibration_requires_counts(self, corpus_model, corpus):
        vectors, _counts, queries = corpus
        with pytest.raises(ValueError, match="callee_counts"):
            corpus_model.similarity_matrix([queries[0]], vectors)

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


def _model(kind: str, h: int) -> Asteria:
    """A model with one of the two Siamese heads (``margin``: the
    classifier; ``regression``: the cosine head) over ``h``-wide
    encodings."""
    return Asteria(AsteriaConfig(
        hidden_dim=h,
        head="regression" if kind == "regression" else "classification",
    ))


def _closed_form(kind: str, siamese, queries, vectors):
    """Equation (8) (or the cosine head) pair by pair in float64, on the
    inputs as the head sees them (cast to the corpus dtype)."""
    queries = np.atleast_2d(queries).astype(vectors.dtype).astype(np.float64)
    vectors = vectors.astype(np.float64)
    if kind == "regression":
        norms = (
            np.linalg.norm(queries, axis=1)[:, None]
            * np.linalg.norm(vectors, axis=1)[None, :]
        )
        return np.minimum((queries @ vectors.T / norms + 1.0) * 0.5, 1.0)
    w = siamese.w.data.astype(vectors.dtype).astype(np.float64)
    features = np.concatenate(
        [
            np.abs(queries[:, None, :] - vectors[None, :, :]),
            queries[:, None, :] * vectors[None, :, :],
        ],
        axis=2,
    )
    logits = features @ w
    exps = np.exp(logits - logits.max(axis=2, keepdims=True))
    return exps[:, :, 1] / exps.sum(axis=2)


@st.composite
def _scoring_cases(draw):
    """(kind, q, h, n, dtype, one_d, seed) with ``n`` on both sides of a
    tile and of a scratch pass, capped so a case stays a few
    milliseconds."""
    one_d = draw(st.booleans())
    q = 1 if one_d else draw(st.integers(1, 9))
    h = draw(st.sampled_from([4, 16]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    tile = _tile_rows(h)
    per_pass = _PASS_BYTES // (q * tile * h * dtype().itemsize) * tile
    sizes = [
        1, tile - 1, tile, tile + 1, 2 * tile + 3,
        per_pass - 1, per_pass, per_pass + 1, per_pass + tile + 3,
    ]
    n = draw(st.sampled_from([size for size in sizes if size <= 50_010]))
    return (
        draw(st.sampled_from(["margin", "regression"])),
        q, h, n, dtype, one_d, draw(st.integers(0, 2 ** 16)),
    )


class TestScoringScratch:
    """The fixed-shape tiles and the reused ``|Q - V|`` scratch of
    ``similarity_from_matrix``."""

    @settings(max_examples=40, deadline=None)
    @given(_scoring_cases())
    def test_a_score_is_a_pure_function_of_query_and_row(self, case):
        """Scoring a row alone, in any subset, or beside any other
        queries gives the same bits -- what lets the index prune, pool
        and batch without changing an answer."""
        kind, q, h, n, dtype, one_d, seed = case
        siamese = _model(kind, h).siamese
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, h)).astype(dtype)
        queries = rng.normal(size=h if one_d else (q, h))
        scores = siamese.similarity_from_matrix(queries, vectors)
        assert scores.dtype == dtype
        assert scores.shape == ((n,) if one_d else (q, n))
        rows = np.flatnonzero(rng.random(n) < rng.random())
        if not rows.size:
            rows = np.array([rng.integers(n)])
        if rng.random() < 0.5:
            rng.shuffle(rows)
        i = int(rng.integers(q))
        first, last = int(rng.integers(0, i + 1)), int(rng.integers(i, q))
        alone = siamese.similarity_from_matrix(
            queries if one_d else queries[i], vectors[rows]
        )
        assert np.array_equal(
            (scores if one_d else scores[i])[rows], alone
        )
        if not one_d:
            beside = siamese.similarity_from_matrix(
                queries[first:last + 1], vectors[rows]
            )
            assert np.array_equal(beside[i - first], alone)
        # 4 float32 ulp, relative or of the score range: the relative
        # error of a small score grows with its (float32) margin
        ulp = float(np.finfo(np.float32).eps)
        assert np.allclose(
            np.atleast_2d(scores),
            _closed_form(kind, siamese, queries, vectors),
            rtol=4 * ulp, atol=4 * ulp,
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


#: Share of each filtered callee count (0-9) over the 504 functions of
#: the benchmark's ``query_online`` corpus: what real generated code
#: looks like, against the synthetic corpora's uniform 0-63.
_REAL_COUNT_SHARES = (0.48, 0.14, 0.16, 0.08, 0.04, 0.06, 0.01, 0.01, 0.01, 0.01)

_COUNT_KINDS = ("equal", "two", "real", "uniform", "huge")


def _draw_counts(rng, kind: str, n: int) -> np.ndarray:
    if kind == "equal":
        return np.full(n, rng.integers(0, 9), dtype=np.int64)
    if kind == "two":
        low = rng.integers(0, 9)
        return rng.choice([low, low + rng.integers(1, 4)], size=n)
    if kind == "real":
        return rng.choice(10, size=n, p=_REAL_COUNT_SHARES)
    if kind == "uniform":
        return rng.integers(0, 64, size=n)
    # a few near counts beside counts so far that exp(-d) underflows
    return np.where(
        rng.random(n) < 0.5,
        rng.integers(0, 4, size=n), rng.integers(0, 10 ** 6, size=n),
    )


#: ``SCORE_BLOCK_ROWS`` during a sweep case, so a corpus on either side
#: of one scoring block stays a few hundred rows.
_CASE_BLOCK_ROWS = 64


@st.composite
def _sweep_cases(draw):
    return dict(
        seed=draw(st.integers(0, 2 ** 16)),
        kind=draw(st.sampled_from(["margin", "regression"])),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        n=draw(st.sampled_from([1, 9, 63, 64, 65, 130, 400])),
        shard=draw(st.sampled_from([16, 50, 1000])),
        counts=draw(st.sampled_from(_COUNT_KINDS)),
        duplicates=draw(st.booleans()),
        calibrate=draw(st.sampled_from([True, True, True, False])),
        n_queries=draw(st.integers(1, 5)),
        k=draw(st.one_of(st.none(), st.integers(1, 15))),
        threshold=draw(st.sampled_from([None, 0, 0.3, 0.84, 0.9])),
    )


class TestRingSweep:
    """The exact sweep scores only rows that can still win; its answer
    is the full sort's all the same."""

    def test_last_ring_is_where_the_factor_underflows(self):
        assert np.exp(-np.float64(ann.LAST_RING)) == 0.0
        assert np.exp(-np.float64(ann.LAST_RING - 1)) > 0.0

    @settings(max_examples=150, deadline=None)
    @given(_sweep_cases())
    def test_top_k_is_the_full_sort_oracle(self, case):
        rng = np.random.default_rng(case["seed"])
        n, h = case["n"], 8
        model = _model(case["kind"], h)
        vectors = rng.normal(size=(n, h))
        if case["duplicates"]:  # score ties, settled by row
            vectors = vectors[rng.integers(0, max(1, n // 4), size=n)]
        vectors = vectors.astype(case["dtype"])
        counts = _draw_counts(rng, case["counts"], n)
        view = ShardedMatrix(h, case["dtype"], [
            vectors[start:start + case["shard"]]
            for start in range(0, n, case["shard"])
        ])
        # inside the corpus's range, just outside it, past the underflow
        count_pool = [
            int(counts[rng.integers(n)]), int(counts[rng.integers(n)]),
            max(0, int(counts.min()) - 1), int(counts.max()) + 2,
            int(counts.max()) + 1000,
        ]
        queries = [
            FunctionEncoding(
                name=f"q{i}", arch="x86", binary_name="query",
                # near a corpus row (scores near the top) or anywhere
                vector=vectors[rng.integers(n)].astype(np.float64)
                + rng.normal(scale=rng.choice([0.0, 0.05, 1.0]), size=h),
                callee_count=count_pool[rng.integers(len(count_pool))],
            )
            for i in range(case["n_queries"])
        ]
        k, threshold = case["k"], case["threshold"]
        with mock.patch.object(ann, "SCORE_BLOCK_ROWS", _CASE_BLOCK_ROWS):
            index = BruteForceIndex(
                model, view, counts, calibrate=case["calibrate"]
            )
            found = index.top_k_batch(queries, k=k, threshold=threshold)
            oracle = index.score_matrix(queries)
        for neighbors, scores in zip(found, oracle):
            rows = np.arange(n)
            if threshold is not None:
                rows = rows[scores >= threshold]
            order = rows[np.lexsort((rows, -scores[rows]))[:k]]
            assert [(nb.row, nb.score) for nb in neighbors] == [
                (int(row), float(scores[row])) for row in order
            ]

    def test_a_tie_with_the_bound_is_settled_by_row(self):
        """The stop rule is strict: a farther row scoring exactly its
        ring's bound ties the k-th score (or equals the threshold) and
        wins on a lower row number."""

        class FirstCoordinateHead:
            """``M(q, v) = v[0]``, so the test can place exact scores."""

            def similarity_from_matrix(self, query, vectors):
                return np.repeat(
                    vectors[None, :, 0], np.atleast_2d(query).shape[0], 0
                )

        model = Asteria(AsteriaConfig(hidden_dim=2))
        model.siamese = FirstCoordinateHead()
        tie = np.exp(-np.float64(1))
        #            row: 0    1    2    3    4    5    6    7
        m = np.array([0.5, 1.0, 0.2, tie, 0.1, 0.3, 0.9, 0.0])
        counts = np.array([6, 5, 5, 4, 4, 4, 7, 4])
        query = FunctionEncoding(
            name="q", arch="x86", binary_name="query",
            vector=np.zeros(2), callee_count=4,
        )
        with mock.patch.object(ann, "SCORE_BLOCK_ROWS", 4):
            index = BruteForceIndex(
                model, np.stack([m, m], axis=1), counts
            )
            scores = index.score_matrix([query])[0]
            assert scores[1] == scores[3] == tie  # ring 1's bound
            best = index.top_k(query, k=1)
            eligible = index.top_k(query, k=None, threshold=float(tie))
        assert [(nb.row, nb.score) for nb in best] == [(1, tie)]
        assert [nb.row for nb in eligible] == [1, 3]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        kind=st.sampled_from(_COUNT_KINDS),
        n=st.sampled_from([1, 2, 9, 200]),
        offset=st.sampled_from([-1000, -3, 0, 1, 2, 10 ** 6 + 5]),
    )
    def test_a_ring_is_the_rows_at_its_distance(self, seed, kind, n, offset):
        """Ring ``d`` of the count layout is exactly the rows whose count
        is ``d`` away (``LAST_RING``: at least that far), ascending."""
        rng = np.random.default_rng(seed)
        counts = _draw_counts(rng, kind, n)
        layout = ann.CountLayout(counts)
        count = max(0, int(counts[rng.integers(n)]) + offset)
        dist = np.minimum(np.abs(counts - count), ann.LAST_RING)
        rings = layout.rings(count)
        assert [d for _, _, d in rings] == np.unique(dist).tolist()
        for bound, factor, d in rings:
            assert bound == factor == pytest.approx(np.exp(-float(d)))
            assert np.array_equal(
                layout.ring(count, d), np.flatnonzero(dist == d)
            )

    @pytest.mark.parametrize("corpus", ["zero-and-1e12", "one-count"])
    def test_extreme_counts_are_the_full_sort_oracle(self, corpus):
        rng = np.random.default_rng(5)
        n, h = 300, 8
        vectors = rng.normal(size=(n, h))
        vectors = vectors[rng.integers(0, n // 3, size=n)]  # score ties
        if corpus == "one-count":
            counts = np.full(n, 7)
            query_counts = [7, 0, 8, 10 ** 12]
        else:
            counts = np.where(rng.random(n) < 0.5, 0, 10 ** 12)
            query_counts = [0, 10 ** 12, 1, 10 ** 12 - 2, 5 * 10 ** 11]
        queries = [
            FunctionEncoding(
                name=f"q{i}", arch="x86", binary_name="query",
                vector=vectors[rng.integers(n)] + rng.normal(scale=0.05, size=h),
                callee_count=count,
            )
            for i, count in enumerate(query_counts)
        ]
        # the layout is sized by the distinct counts, never the largest
        layout = ann.CountLayout(counts)
        nbytes = sum(
            part.nbytes for part in (layout.order, layout.values, layout.bounds)
        )
        assert nbytes <= 4 * n + 16 * np.unique(counts).size + 8
        with mock.patch.object(ann, "SCORE_BLOCK_ROWS", _CASE_BLOCK_ROWS):
            index = BruteForceIndex(_model("margin", h), vectors, counts)
            oracle = index.score_matrix(queries)
            for k, threshold in [(10, None), (None, 0.3), (1, 0.0)]:
                found = index.top_k_batch(queries, k=k, threshold=threshold)
                for neighbors, scores in zip(found, oracle):
                    rows = np.flatnonzero(
                        scores >= (-np.inf if threshold is None else threshold)
                    )
                    order = rows[np.lexsort((rows, -scores[rows]))[:k]]
                    assert [(nb.row, nb.score) for nb in neighbors] == [
                        (int(row), float(scores[row])) for row in order
                    ]

    def test_the_sweep_reports_the_rows_it_scored(self):
        """``repro_ann_rerank_fraction`` is the share of the corpus a
        query's rings visited, not 1.0 by definition."""
        rng = np.random.default_rng(3)
        n, h = 4000, 8
        vectors = rng.normal(size=(n, h)).astype(np.float32)
        query = FunctionEncoding(
            name="q", arch="x86", binary_name="query",
            vector=rng.normal(size=h), callee_count=7,
        )

        def fractions(counts, calibrate=True):
            registry = MetricsRegistry()
            with mock.patch.object(ann, "SCORE_BLOCK_ROWS", 256):
                BruteForceIndex(
                    _model("margin", h), vectors, counts,
                    calibrate=calibrate, registry=registry,
                ).top_k_batch([query, query], k=10)
            fraction = registry.get("repro_ann_rerank_fraction")
            candidates = registry.get("repro_ann_candidates")
            assert fraction.count == candidates.count == 2
            assert candidates.sum == pytest.approx(fraction.sum * n)
            return fraction.sum / 2

        uniform = rng.integers(0, 64, size=n)
        assert 0.0 < fractions(uniform) < 0.1
        assert fractions(uniform, calibrate=False) == 1.0
        assert fractions(np.full(n, 7)) == 1.0

    def test_the_quantized_tier_reports_probed_and_swept_apart(self):
        """``repro_ann_probed_fraction`` is what ``nprobe`` buys,
        ``repro_ann_swept_fraction`` the rows the rings quantize-scored
        of it; the span carries both counts."""
        rng = np.random.default_rng(4)
        n, h = 20000, 8
        vectors = rng.normal(size=(n, h)).astype(np.float32)
        queries = [
            FunctionEncoding(
                name=f"q{i}", arch="x86", binary_name="query",
                vector=vectors[i] + 0.01, callee_count=7 + i,
            )
            for i in range(3)
        ]
        registry = MetricsRegistry()
        tier = make_index(
            "ivf-pq", _model("margin", h), vectors,
            rng.integers(0, 64, size=n), registry=registry, seed=1,
            nprobe=16,
        )
        with trace("query") as span:
            tier.top_k_batch(queries, k=10)
        probed = registry.get("repro_ann_probed_fraction")
        swept = registry.get("repro_ann_swept_fraction")
        assert probed.count == swept.count == len(queries)
        assert 0.0 < swept.sum < 0.25 * probed.sum
        assert sum(span.attrs["probed_rows"]) == round(probed.sum * n)
        assert sum(span.attrs["swept_rows"]) == round(swept.sum * n)
        assert span.attrs["candidates"] == [80, 80, 80]


class TestAnnBackends:
    def test_brute_force_matches_sorted_scores(self, corpus_model, corpus):
        vectors, counts, queries = corpus
        index = BruteForceIndex(corpus_model, vectors, counts)
        query = queries[0]
        neighbors = index.top_k(query, k=5)
        scores = corpus_model.similarity_matrix([query], vectors, counts)[0]
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
        scores = corpus_model.similarity_matrix(
            [queries[0]], vectors, counts
        )[0]
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
    """The Table IV search as an engine client: ingest the corpus, then
    one ``engine.query_batch`` of the CVE library."""

    @pytest.fixture(scope="class")
    def firmware(self):
        return build_firmware_dataset(n_images=4, seed=3)

    @pytest.fixture(scope="class")
    def vuln_search(self, make_vuln_search, firmware):
        search = make_vuln_search(threshold=0.8)
        search.engine.ingest(IngestRequest(images=firmware.images))
        return search

    def test_ingest_counts(self, vuln_search, firmware):
        # every decompiled function above the size floor is stored once
        store = vuln_search.engine.store
        assert len(store) > 0
        image_ids = {store.metadata_at(row).image_id
                     for row in range(len(store))}
        unpackable = {
            image.identifier
            for image in firmware.images if not image.unknown_format
        }
        assert image_ids == unpackable

    def test_query_returns_metadata(self, vuln_search):
        cve_id = sorted(vuln_search.engine.cve_library())[0]
        hits = vuln_search.engine.query(
            QueryRequest(cve_id=cve_id, top_k=5)
        ).hits
        assert len(hits) == 5
        assert hits[0].score >= hits[-1].score
        for hit in hits:
            assert hit.name.startswith("sub_")
            assert hit.image_id

    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_index_path_matches_exhaustive(self, make_vuln_search, seed):
        firmware = build_firmware_dataset(n_images=4, seed=seed)
        vuln_search = make_vuln_search(threshold=0.8)
        vuln_search.engine.ingest(IngestRequest(images=firmware.images))
        report_ex, cands_ex = vuln_search.search_exhaustive(firmware)
        report_ix, cands_ix = vuln_search.search(firmware)

        def key(c):
            return (c.entry.cve_id, c.image.identifier, c.binary_name,
                    c.function_name, c.confirmed)

        assert cands_ix  # the comparison is not vacuous
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

    def test_top_k_caps_candidates(self, vuln_search, firmware):
        _report, cands = vuln_search.search(firmware, top_k=1)
        per_cve = {}
        for c in cands:
            per_cve[c.entry.cve_id] = per_cve.get(c.entry.cve_id, 0) + 1
        assert all(count <= 1 for count in per_cve.values())

    def test_search_refuses_an_index_of_another_corpus(
        self, vuln_search, firmware
    ):
        other = build_firmware_dataset(n_images=1, seed=3)
        assert {i.identifier for i in other.images} < {
            i.identifier for i in firmware.images
        }
        with pytest.raises(ValueError, match="not in the dataset"):
            vuln_search.search(other)

    def test_persistent_index_same_results(
        self, vuln_search, firmware, tmp_path, trained_model
    ):
        config = EngineConfig(index_root=str(tmp_path / "fw-index"))
        AsteriaEngine(config, model=trained_model).ingest(
            IngestRequest(images=firmware.images)
        )
        reopened = AsteriaEngine(config, model=trained_model)
        reopened.open_index()
        request = QueryRequest(
            cve_id=sorted(reopened.cve_library())[0], top_k=5
        )

        def ranking(engine):
            return [(h.row, h.name, round(h.score, 12))
                    for h in engine.query(request).hits]

        assert ranking(vuln_search.engine) == ranking(reopened)
