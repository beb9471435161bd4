"""Tiered ANN backend: int8 quantization, IVF probing, persisted state.

Covers the ``ivf-pq`` tier end to end: the symmetric per-dimension int8
scheme's error bound, deterministic k-means partitioning, recall against
the exact sweep on clustered synthetic corpora, the persisted-state life
cycle (clean reopen quantizes zero rows, prefix states extend
incrementally, torn writes keep the previous generation), the typed
unknown-backend error, and the synth-corpus ground-truth layout the
recall measurements rely on.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.faults as faults
import repro.index.quant as quant
from repro.api import AsteriaEngine, EngineConfig, QueryRequest
from repro.api.errors import BadRequestError
from repro.core.model import Asteria, AsteriaConfig, FunctionEncoding
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


def _probed_rows(tier, matrix):
    """Per query, the rows of the ``nprobe`` inverted lists nearest it
    (the coarse probe's own arithmetic: near-tied centroids must not
    flip on a differently shaped GEMM)."""
    q32 = np.asarray(matrix, dtype=np.float32)
    centroids = tier._centroids
    c_norm = (centroids * centroids).sum(axis=1)
    d2 = c_norm[None, :] - 2.0 * (q32 @ centroids.T)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :tier.nprobe]
    return [
        np.flatnonzero(np.isin(tier._assignments, lists))
        for lists in nearest
    ]


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
        queries = synth_queries(spec, range(4))
        matrix = np.stack([q.vector for q in queries])
        for rows in tier.candidate_rows_batch(matrix, 24, queries):
            assert rows.size <= 24
            assert np.all(np.diff(rows) > 0)  # ascending, unique
        # fewer probed rows than asked for: every ring is visited and
        # every probed row comes back
        probed = tier.candidate_rows_batch(matrix, None, queries)
        capped = tier.candidate_rows_batch(matrix, 10 ** 6, queries)
        for rows, every in zip(capped, probed):
            assert 0 < rows.size < len(tier)
            assert np.array_equal(rows, every)

    def test_without_encodings_the_ranking_is_uncalibrated(self, model):
        """A missing encoding is not a query that calls nothing: the
        quantized ranking falls back to the uncalibrated head instead of
        favouring the rows with callee count 0."""
        rng = np.random.default_rng(8)
        vectors = rng.normal(size=(400, DIM)).astype(np.float32)
        counts = rng.choice([0, 3], size=400)
        options = dict(n_lists=4, nprobe=4, seed=1)
        tier = IvfPqIndex(model, vectors, counts, **options)
        plain = IvfPqIndex(
            model, vectors, counts, calibrate=False, **options
        )
        matrix = vectors[[5, 90, 311]].astype(np.float64) + 0.01
        queries = [
            FunctionEncoding(
                name=f"q{i}", arch="", binary_name="",
                vector=matrix[i], callee_count=3,
            )
            for i in range(3)
        ]
        bare = tier.candidate_rows_batch(matrix, 20)
        for got, want in zip(bare, plain.candidate_rows_batch(matrix, 20)):
            assert np.array_equal(got, want)
        # ... and the encodings, when given, do change the ranking
        calibrated = tier.candidate_rows_batch(matrix, 20, queries)
        assert all((counts[rows] == 3).all() for rows in calibrated)
        assert not any((counts[rows] == 3).all() for rows in bare)

    def test_top_k_none_returns_the_probed_lists_unscored(self, model, spec):
        """``top_k: null`` keeps every probed row, so ranking them in
        the quantized tier would be thrown away: no head call is made."""
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(300, DIM)).astype(np.float32)
        tier = IvfPqIndex(
            model, vectors, rng.integers(0, 4, size=300),
            n_lists=8, nprobe=3, seed=1,
        )
        queries = synth_queries(spec, range(3))
        calls = []
        head = model.siamese.similarity_from_matrix

        def counting(query, block):
            calls.append(block.shape[0])
            return head(query, block)

        with mock.patch.object(
            model.siamese, "similarity_from_matrix", counting
        ):
            proposed = tier.propose(queries, k=None)
            assert calls == []
            tier.propose(queries, k=5)
            assert calls
        matrix = np.stack([q.vector for q in queries])
        for rows, lists in zip(proposed, _probed_rows(tier, matrix)):
            assert 0 < rows.size < len(tier)
            assert np.array_equal(rows, lists)

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
        config = EngineConfig(backend="ivf-pq", seed=4)
        requests = [
            QueryRequest(encoding=query, top_k=5)
            for query in synth_queries(spec, range(4))
        ]
        first = AsteriaEngine(config, model=model, store=store)
        rankings = [
            [h.row for h in r.hits] for r in first.query_batch(requests)
        ]
        stats = first.stats()
        assert not stats.ann_persisted
        assert stats.ann_rows_quantized == len(store)
        manifest = store.ann
        assert manifest["kind"] == "ivf-pq"
        assert manifest["file"] == "ann-ivf-pq.npz"
        assert len(manifest["sha256"]) == 64

        again = AsteriaEngine(
            config, model=model, store=EmbeddingStore.open(tmp_path / "idx")
        )
        assert rankings == [
            [h.row for h in r.hits] for r in again.query_batch(requests)
        ]
        stats = again.stats()
        assert stats.ann_persisted is True
        assert stats.ann_nprobe == 8
        assert stats.ann_rows_quantized == 0
        assert stats.ann_rows_projected == 0

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
        engine = AsteriaEngine(
            EngineConfig(backend="ivf-pq", seed=4), model=model, store=store
        )
        faults.configure("ann.build=raise")
        hits = engine.query(
            QueryRequest(encoding=synth_queries(spec, [0])[0], top_k=5)
        ).hits
        assert len(hits) == 5  # exact sweep answered instead of failing
        stats = engine.stats()
        assert stats.ann_backend == "ivf-pq"
        assert any(
            "serving exact sweeps" in r for r in stats.degraded_reasons
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


# -- the ring sweep against its full-sort oracle ---------------------------

#: ``SCORE_BLOCK_ROWS`` during a candidate case, so a ring of a few
#: hundred rows takes several scoring passes.
_CASE_BLOCK_ROWS = 64

_COUNT_KINDS = ("equal", "two", "uniform", "far", "small")


def _draw_counts(rng, kind: str, n: int) -> np.ndarray:
    if kind == "equal":
        return np.full(n, rng.integers(0, 9), dtype=np.int64)
    if kind == "two":
        low = rng.integers(0, 9)
        return rng.choice([low, low + rng.integers(1, 4)], size=n)
    if kind == "uniform":
        return rng.integers(0, 64, size=n)
    if kind == "far":  # distances whose factor underflows to exactly 0
        return rng.choice([0, 1, 800, 2000, 10 ** 6], size=n)
    return rng.integers(0, 4, size=n)


def _full_sort_candidates(tier, query, rows, n, calibrate) -> np.ndarray:
    """The reference: quantize-score *every* probed row in one call,
    sort them all, keep ``n``."""
    scores = tier.model.similarity_matrix(
        [query], dequantize_int8(tier._codes[rows], tier._scales),
        tier.callee_counts[rows], calibrate=calibrate,
    )[0]
    return np.sort(rows[np.lexsort((rows, -scores))[:n]])


@st.composite
def _candidate_cases(draw):
    return dict(
        seed=draw(st.integers(0, 2 ** 16)),
        head=draw(st.sampled_from(["distance", "untrained"])),
        dim=draw(st.sampled_from([4, 16])),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        n_rows=draw(st.sampled_from([1, 2, 9, 64, 65, 300, 1000, 2000])),
        counts=draw(st.sampled_from(_COUNT_KINDS)),
        duplicates=draw(st.booleans()),
        calibrate=draw(st.sampled_from([True, True, True, False])),
        n_lists=draw(st.sampled_from([1, 4, 16])),
        nprobe=draw(st.sampled_from([1, 8, None])),  # None: every list
        n_queries=draw(st.integers(1, 5)),
        shared_count=draw(st.booleans()),
        n=draw(st.sampled_from([1, 64, 80, 5000])),
    )


class TestRingCandidates:
    """The quantized sweep scores only the probed rows that can still
    win; its candidates are the full sort's all the same."""

    @settings(max_examples=150, deadline=None)
    @given(_candidate_cases())
    def test_candidates_are_the_full_sort_oracle(self, case):
        rng = np.random.default_rng(case["seed"])
        n_rows, dim = case["n_rows"], case["dim"]
        model = distance_head_model(dim)
        if case["head"] == "untrained":
            model = Asteria(AsteriaConfig(hidden_dim=dim))
        vectors = rng.normal(size=(n_rows, dim))
        if case["duplicates"]:  # score ties, settled by row
            vectors = vectors[rng.integers(0, max(1, n_rows // 4), n_rows)]
        vectors = vectors.astype(case["dtype"])
        counts = _draw_counts(rng, case["counts"], n_rows)
        # inside the corpus's range, just outside it, past the underflow
        count_pool = [
            int(counts[rng.integers(n_rows)]),
            int(counts[rng.integers(n_rows)]),
            max(0, int(counts.min()) - 1), int(counts.max()) + 2,
            int(counts.max()) + 1000,
        ]
        if case["shared_count"]:
            count_pool = count_pool[:1]
        queries = [
            FunctionEncoding(
                name=f"q{i}", arch="x86", binary_name="query",
                # near a corpus row (scores near the top) or anywhere
                vector=vectors[rng.integers(n_rows)].astype(np.float64)
                + rng.normal(scale=rng.choice([0.0, 0.05, 1.0]), size=dim),
                callee_count=count_pool[rng.integers(len(count_pool))],
            )
            for i in range(case["n_queries"])
        ]
        if len(queries) > 1 and case["duplicates"]:
            queries[-1] = queries[0]  # a storm: one group of two
        matrix = np.stack([q.vector for q in queries])
        with mock.patch.object(quant, "SCORE_BLOCK_ROWS", _CASE_BLOCK_ROWS):
            tier = IvfPqIndex(
                model, vectors, counts, calibrate=case["calibrate"],
                n_lists=case["n_lists"], nprobe=case["nprobe"] or 16,
                seed=case["seed"],
            )
            found = tier.candidate_rows_batch(matrix, case["n"], queries)
        probed = _probed_rows(tier, matrix)
        for rows, query, lists in zip(found, queries, probed):
            want = _full_sort_candidates(
                tier, query, lists, case["n"], case["calibrate"]
            )
            assert np.array_equal(rows, want)

    def test_a_tie_with_the_bound_is_settled_by_row(self):
        """The stop rule is strict: a farther row scoring exactly its
        ring's bound ties the n-th held score and wins on a lower row
        number."""
        tie = np.exp(-np.float64(1))
        #            row: 0    1    2    3    4    5    6    7
        m = np.array([0.5, 1.0, 0.2, tie, 0.1, 0.3, 0.9, 0.0])
        counts = np.array([6, 5, 5, 4, 4, 4, 7, 4])
        # int8 keeps these first coordinates exactly (the column's
        # scale is 127 / 127), so the head can look its score up
        ids = np.array([0.0, 1, 2, 3, 4, 5, 6, 127])

        class LookupHead:
            """``M(q, v) = m[row of v]``, placing exact float64 scores."""

            def similarity_from_matrix(self, query, vectors):
                scores = m[np.minimum(vectors[:, 0], 7).astype(int)]
                return np.repeat(
                    scores[None, :], np.atleast_2d(query).shape[0], 0
                )

        model = Asteria(AsteriaConfig(hidden_dim=2))
        model.siamese = LookupHead()
        tier = IvfPqIndex(
            model, np.stack([ids, ids], axis=1), counts,
            n_lists=1, nprobe=1,
        )
        query = FunctionEncoding(
            name="q", arch="x86", binary_name="query",
            vector=np.zeros(2), callee_count=4,
        )
        matrix = query.vector[None, :]
        # ring 0 holds row 3 at exactly ring 1's bound; row 1 scores it too
        assert [
            rows.tolist()
            for n in (1, 2)
            for rows in tier.candidate_rows_batch(matrix, n, [query])
        ] == [[1], [1, 3]]
        best = tier.top_k(query, k=1)
        assert [(nb.row, nb.score) for nb in best] == [(1, tie)]

    def test_a_storm_of_one_query_is_each_query_alone(self, model):
        """Grouping is invisible: duplicate queries in one batch get the
        lists each gets alone, in whatever order the batch holds them."""
        spec = SynthSpec(n_functions=3000, dim=DIM, cluster_size=12, seed=6)
        rng = np.random.default_rng(6)
        vectors = rng.normal(size=(3000, DIM)).astype(np.float32)
        tier = IvfPqIndex(
            model, vectors, rng.integers(0, 8, size=3000), seed=2
        )
        a, b, c = synth_queries(spec, [3, 40, 77])
        batch = [a, b, a, c, a, b]
        matrix = np.stack([q.vector for q in batch])
        together = tier.candidate_rows_batch(matrix, 80, batch)
        backwards = tier.candidate_rows_batch(
            matrix[::-1], 80, batch[::-1]
        )
        for i, query in enumerate(batch):
            alone = tier.candidate_rows_batch(
                query.vector[None, :], 80, [query]
            )[0]
            assert alone.size == 80
            assert np.array_equal(together[i], alone)
            assert np.array_equal(backwards[len(batch) - 1 - i], alone)
