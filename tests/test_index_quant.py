"""Tiered ANN backend: int8 quantization, IVF probing, persisted state.

Covers the ``ivf-pq`` tier end to end: the symmetric per-dimension int8
scheme's error bound, deterministic k-means partitioning, recall against
the exact sweep on clustered synthetic corpora, the persisted-state life
cycle (clean reopen quantizes zero rows, prefix states extend
incrementally, torn writes keep the previous generation), the typed
unknown-backend error, and the synth-corpus ground-truth layout the
recall measurements rely on.
"""

import numpy as np
import pytest

import repro.faults as faults
from repro.api.errors import BadRequestError
from repro.core.model import FunctionEncoding
from repro.faults import FaultInjected
from repro.index.ann import (
    BruteForceIndex,
    backend_is_stateful,
    known_backends,
    make_index,
    select_top_k,
)
from repro.index.quant import (
    IvfPqIndex,
    default_n_lists,
    dequantize_int8,
    kmeans_centroids,
    quantize_int8,
)
from repro.index.search import SearchService
from repro.index.store import EmbeddingStore
from repro.index.synth import (
    SynthSpec,
    cluster_rows,
    distance_head_model,
    synth_corpus,
    synth_queries,
)

DIM = 16


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.configure("")
    yield
    faults.configure("")


@pytest.fixture(scope="module")
def model():
    return distance_head_model(DIM)


@pytest.fixture(scope="module")
def spec():
    return SynthSpec(n_functions=600, dim=DIM, cluster_size=12, seed=5)


def _filled_store(root, spec, shard_size=64):
    store = EmbeddingStore.create(root, dim=spec.dim, shard_size=shard_size)
    synth_corpus(store, spec)
    return store


def _rows(neighbors):
    return [n.row for n in neighbors]


# -- int8 quantization -----------------------------------------------------


class TestQuantizeInt8:
    def test_round_trip_error_bounded_by_half_scale(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(200, 12)).astype(np.float32) * 3.0
        codes, scales = quantize_int8(matrix)
        assert codes.dtype == np.int8
        error = np.abs(dequantize_int8(codes, scales) - matrix)
        # symmetric rounding: at most half a quantization step per dim
        assert np.all(error <= scales[None, :] / 2 + 1e-6)

    def test_zero_column_never_divides_by_zero(self):
        matrix = np.zeros((4, 3), dtype=np.float32)
        matrix[:, 0] = [1.0, -2.0, 0.5, 2.0]
        codes, scales = quantize_int8(matrix)
        assert scales[1] == 1.0 and scales[2] == 1.0
        assert np.all(codes[:, 1:] == 0)

    def test_existing_scales_reproduce_codes(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(50, 6))
        codes, scales = quantize_int8(matrix)
        again, _ = quantize_int8(matrix[:20], scales)
        assert np.array_equal(again, codes[:20])

    def test_kmeans_is_deterministic_and_clamps(self):
        rng = np.random.default_rng(2)
        sample = rng.normal(size=(80, 5))
        a = kmeans_centroids(sample, 8, seed=3)
        b = kmeans_centroids(sample, 8, seed=3)
        assert np.array_equal(a, b)
        assert kmeans_centroids(sample[:4], 16, seed=3).shape[0] == 4
        with pytest.raises(ValueError):
            kmeans_centroids(sample[:0], 4, seed=3)

    def test_default_n_lists_tracks_sqrt(self):
        assert default_n_lists(0) == 1
        assert default_n_lists(1_000_000) == 1000
        assert default_n_lists(10**9) == 4096  # capped


# -- the tiered index ------------------------------------------------------


class TestIvfPqIndex:
    def test_recall_matches_exact_on_clusters(self, tmp_path, model, spec):
        store = _filled_store(tmp_path / "idx", spec)
        queries = synth_queries(spec, range(8))
        exact = BruteForceIndex(
            model, store.vectors(), store.callee_counts()
        )
        tier = IvfPqIndex(
            model, store.vectors(), store.callee_counts(), seed=2
        )
        for query, cluster in zip(queries, range(8)):
            want = exact.top_k(query, k=10)
            got = tier.top_k(query, k=10)
            assert _rows(got) == _rows(want)
            # ground truth: the query's own cluster dominates its top-k
            start, stop = cluster_rows(spec, cluster)
            assert all(start <= n.row < stop for n in got)

    def test_candidates_sorted_and_capped(self, tmp_path, model, spec):
        store = _filled_store(tmp_path / "idx", spec)
        tier = IvfPqIndex(
            model, store.vectors(), store.callee_counts(), seed=2
        )
        matrix = np.stack(
            [q.vector for q in synth_queries(spec, range(4))]
        )
        for rows in tier.candidate_rows_batch(matrix, 24):
            assert rows.size <= 24
            assert np.all(np.diff(rows) > 0)  # ascending, unique

    def test_knob_validation(self, model):
        vectors = np.zeros((4, DIM))
        counts = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError):
            IvfPqIndex(model, vectors, counts, nprobe=0)
        with pytest.raises(ValueError):
            IvfPqIndex(model, vectors, counts, rerank=0)

    def test_empty_corpus(self, model, spec):
        tier = IvfPqIndex(
            model, np.zeros((0, DIM)), np.zeros(0, dtype=np.int64)
        )
        queries = synth_queries(spec, [0, 1])
        assert tier.top_k_batch(queries, k=5) == [[], []]

    def test_rerank_knob_sets_oversample(self, model):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(40, DIM))
        counts = np.zeros(40, dtype=np.int64)
        tier = IvfPqIndex(model, vectors, counts, rerank=3)
        assert tier.oversample == 3


# -- persisted state -------------------------------------------------------


class TestPersistedIvfPq:
    def test_reopen_quantizes_zero_rows(self, tmp_path, model, spec):
        store = _filled_store(tmp_path / "idx", spec)
        built = IvfPqIndex(
            model, store.vectors(), store.callee_counts(), seed=7
        )
        assert built.rows_quantized == len(store)
        assert not built.loaded_from_state
        store.write_ann_state(*built.state_dict())
        assert (tmp_path / "idx" / "ann-ivf-pq.npz").exists()

        reopened = EmbeddingStore.open(tmp_path / "idx")
        restored = IvfPqIndex(
            model, reopened.vectors(), reopened.callee_counts(),
            seed=7, state=reopened.read_ann_state(),
        )
        assert restored.loaded_from_state
        assert restored.rows_quantized == 0
        assert restored.rows_projected == 0
        for query in synth_queries(spec, range(6)):
            assert _rows(built.top_k(query, k=8)) \
                == _rows(restored.top_k(query, k=8))

    def test_prefix_state_extends_incrementally(
        self, tmp_path, model, spec
    ):
        store = _filled_store(tmp_path / "idx", spec)
        built = IvfPqIndex(
            model, store.vectors(), store.callee_counts(), seed=7
        )
        store.write_ann_state(*built.state_dict())
        state = store.read_ann_state()
        rng = np.random.default_rng(9)
        n_old = len(store)
        appended = rng.normal(size=(20, DIM))
        store.append_rows(appended, np.zeros(20, dtype=np.int64))
        extended = IvfPqIndex(
            model, store.vectors(), store.callee_counts(),
            seed=7, state=state,
        )
        assert extended.loaded_from_state
        assert extended.rows_quantized == 20
        assert extended._assignments.shape[0] == len(store)
        # the appended rows are searchable, not merely counted
        probe = FunctionEncoding(
            name="probe", arch="synth", binary_name="probe",
            vector=appended[5], callee_count=0,
        )
        assert extended.top_k(probe, k=1)[0].row == n_old + 5

    def test_mismatched_seed_forces_rebuild(self, tmp_path, model, spec):
        store = _filled_store(tmp_path / "idx", spec)
        built = IvfPqIndex(
            model, store.vectors(), store.callee_counts(), seed=7
        )
        store.write_ann_state(*built.state_dict())
        other = IvfPqIndex(
            model, store.vectors(), store.callee_counts(),
            seed=8, state=store.read_ann_state(),
        )
        assert not other.loaded_from_state
        assert other.rows_quantized == len(store)

    def test_codebook_state_is_refused(self, tmp_path, model, spec):
        store = _filled_store(tmp_path / "idx", spec)
        vectors, counts = store.vectors(), store.callee_counts()
        params, arrays = IvfPqIndex(
            model, vectors, counts, seed=7
        ).state_dict()
        # states written while `pq_m` existed carry it: 0 (plain int8
        # codes, the only layout ever persisted by default) still loads
        legacy = IvfPqIndex(
            model, vectors, counts, seed=7,
            state=(dict(params, pq_m=0), arrays),
        )
        assert legacy.loaded_from_state and legacy.rows_quantized == 0
        # a product-quantization codebook state has no reader left
        refused = IvfPqIndex(
            model, vectors, counts, seed=7,
            state=(dict(params, pq_m=4), arrays),
        )
        assert not refused.loaded_from_state
        assert refused.rows_quantized == len(store)

    def test_service_round_trips_state_with_checksum(
        self, tmp_path, model, spec
    ):
        store = _filled_store(tmp_path / "idx", spec)
        service = SearchService(model, store, backend="ivf-pq", seed=4)
        assert service.index().rows_quantized == len(store)
        manifest = store.ann
        assert manifest["kind"] == "ivf-pq"
        assert manifest["file"] == "ann-ivf-pq.npz"
        assert len(manifest["sha256"]) == 64

        again = SearchService(
            model, EmbeddingStore.open(tmp_path / "idx"),
            backend="ivf-pq", seed=4,
        )
        index = again.index()
        assert index.loaded_from_state
        assert index.rows_quantized == 0
        info = again.ann_info()
        assert info["persisted"] is True
        assert info["nprobe"] == 8
        assert info["rows_quantized"] == 0
        queries = synth_queries(spec, range(4))
        for query in queries:
            assert [h.row for h in service.query(query, top_k=5)] \
                == [h.row for h in again.query(query, top_k=5)]

    def test_torn_persist_keeps_previous_generation(
        self, tmp_path, model, spec
    ):
        store = _filled_store(tmp_path / "idx", spec)
        built = IvfPqIndex(
            model, store.vectors(), store.callee_counts(), seed=7
        )
        store.write_ann_state(*built.state_dict())
        good_sha = store.ann["sha256"]
        faults.configure("ann.persist.pre_rename=raise*1")
        with pytest.raises(FaultInjected):
            store.write_ann_state(*built.state_dict())
        reopened = EmbeddingStore.open(tmp_path / "idx")
        assert reopened.ann["sha256"] == good_sha
        state = reopened.read_ann_state()
        assert state is not None
        restored = IvfPqIndex(
            model, reopened.vectors(), reopened.callee_counts(),
            seed=7, state=state,
        )
        assert restored.rows_quantized == 0

    def test_build_fault_degrades_service_to_exact(
        self, tmp_path, model, spec
    ):
        store = _filled_store(tmp_path / "idx", spec)
        service = SearchService(model, store, backend="ivf-pq", seed=4)
        faults.configure("ann.build=raise")
        hits = service.query(synth_queries(spec, [0])[0], top_k=5)
        assert len(hits) == 5  # exact sweep answered instead of failing
        assert any(
            "serving exact sweeps" in r for r in service.degraded_reasons
        )


# -- backend registry ------------------------------------------------------


class TestBackendRegistry:
    def test_make_index_builds_ivf_pq(self, model):
        rng = np.random.default_rng(4)
        index = make_index(
            "ivf-pq", model, rng.normal(size=(30, DIM)),
            np.zeros(30, dtype=np.int64), nprobe=2, rerank=4,
        )
        assert isinstance(index, IvfPqIndex)
        assert index.nprobe == 2 and index.oversample == 4

    def test_unknown_backend_is_a_typed_bad_request(self, model):
        with pytest.raises(BadRequestError) as excinfo:
            make_index(
                "bogus", model, np.zeros((2, DIM)),
                np.zeros(2, dtype=np.int64),
            )
        assert "bogus" in str(excinfo.value)
        assert "ivf-pq" in str(excinfo.value)

    def test_statefulness_and_listing(self):
        assert backend_is_stateful("ivf-pq")
        assert not backend_is_stateful("exact")
        assert not backend_is_stateful("lsh")  # removed, so unknown
        assert known_backends() == ["exact", "ivf-pq"]


# -- synthetic corpus ground truth -----------------------------------------


class TestSynthCorpus:
    def test_layout_is_cluster_contiguous_and_deterministic(
        self, tmp_path, spec
    ):
        a = _filled_store(tmp_path / "a", spec)
        b = _filled_store(tmp_path / "b", spec, shard_size=128)
        # chunking/sharding must not change a single byte of geometry
        assert np.array_equal(
            np.asarray(a.vectors()), np.asarray(b.vectors())
        )
        start, stop = cluster_rows(spec, 3)
        block = np.asarray(a.vectors())[start:stop]
        # one tight cluster: spread around its center stays noise-sized
        assert np.abs(block - block.mean(axis=0)).max() < 6 * spec.noise
        meta = a.metadata_at(start)
        assert meta.name == f"synth_{start:08d}"
        assert meta.binary_name == "synthbin_0000003"
        assert meta.arch == "synth"

    def test_requires_empty_matching_store(self, tmp_path, spec):
        store = EmbeddingStore.create(tmp_path / "idx", dim=spec.dim)
        synth_corpus(store, spec)
        with pytest.raises(ValueError):
            synth_corpus(store, spec)  # not empty any more
        other = EmbeddingStore.create(tmp_path / "other", dim=spec.dim + 1)
        with pytest.raises(ValueError):
            synth_corpus(other, spec)

    def test_queries_target_their_cluster(self, spec):
        queries = synth_queries(spec, [2, 2, 7])
        assert queries[0].callee_count == queries[1].callee_count
        # fresh perturbations: never identical to each other
        assert not np.array_equal(queries[0].vector, queries[1].vector)
        assert queries[2].binary_name == "synthbin_0000007"


# -- int8-heavy tie-break fuzz ---------------------------------------------


class TestQuantizedTieFuzz:
    def test_select_top_k_under_heavy_int8_ties(self):
        # int8-rounded scores collapse to few distinct values, so the
        # boundary tie handling does all the work; the lexsort reference
        # must be matched position for position
        rng = np.random.default_rng(12)
        for trial in range(40):
            n = int(rng.integers(5, 400))
            scores = rng.integers(-127, 128, size=n) / 127.0
            rows = rng.permutation(n * 3)[:n]
            k = int(rng.integers(1, n + 3))
            want = np.lexsort((rows, -scores))[:k]
            got = select_top_k(scores, rows, k)
            assert list(got) == list(want)

    def test_batch_rerank_breaks_int8_ties_by_row(self, model):
        # duplicated vectors quantize to identical codes *and* score
        # identically in the exact rerank: ascending row must decide,
        # in both the single-query and the batched path
        base = np.ones(DIM)
        vectors = np.stack([base] * 30)
        counts = np.zeros(30, dtype=np.int64)
        tier = IvfPqIndex(
            model, vectors, counts, n_lists=1, nprobe=1, seed=0
        )
        query = synth_queries(
            SynthSpec(n_functions=30, dim=DIM, seed=0), [0]
        )[0]
        single = tier.top_k(query, k=8)
        batched = tier.top_k_batch([query, query], k=8)
        assert _rows(single) == list(range(8))
        for result in batched:
            assert _rows(result) == list(range(8))
