"""Tests for the unified AsteriaEngine facade (`repro.api`).

Covers the typed config (dict/args loading), the micro-batcher,
the engine lifecycle (encode/ingest/query/compare/stats, and
`train_model` feeding a new engine), the one lock-free encoder, the
typed error hierarchy, thread-safety under a concurrent query storm, and
the query / one-request-batch differential.
"""

import itertools
import json
import re
import sys
import threading
import time

import numpy as np
import pytest

import repro.api.query as query_module
import repro.index.ann as ann
import repro.pipeline.corpus as corpus
from repro.api import (
    AsteriaEngine,
    BadRequestError,
    CompareRequest,
    EncodeRequest,
    EngineConfig,
    IndexStoreError,
    IngestRequest,
    InputNotFoundError,
    MicroBatcher,
    ModelNotFoundError,
    QueryRequest,
    TrainRequest,
    train_model,
)
from repro.api.types import DEFAULT_TOP_K
from repro.cli import build_parser
from repro.compiler.pipeline import compile_package
from repro.core.model import FunctionEncoding
from repro.index.ann import BruteForceIndex, make_index
from repro.index.store import EmbeddingStore
from repro.lang.generator import ProgramGenerator
from repro.obs.metrics import METRICS
from repro.pipeline.stages import extract_binary


# -- EngineConfig -------------------------------------------------------------------


class TestEngineConfig:
    def test_dict_round_trip(self):
        config = EngineConfig(model_path="m.npz", jobs=3, backend="ivf-pq",
                              micro_batch_size=8)
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_is_clean_error(self):
        with pytest.raises(BadRequestError, match="unknown EngineConfig"):
            EngineConfig.from_dict({"jbos": 2})

    def test_bad_values_are_clean_errors(self):
        with pytest.raises(BadRequestError):
            EngineConfig(jobs=0)
        with pytest.raises(BadRequestError):
            EngineConfig(backend="annoy")
        with pytest.raises(BadRequestError):
            EngineConfig(micro_batch_wait_ms=-1)

    def test_ann_knob_validation(self):
        config = EngineConfig(backend="ivf-pq", ann_nprobe=4,
                              ann_rerank=16, ann_lists=128)
        assert EngineConfig.from_dict(config.to_dict()) == config
        with pytest.raises(BadRequestError, match="ann_nprobe"):
            EngineConfig(ann_nprobe=0)
        with pytest.raises(BadRequestError, match="ann_rerank"):
            EngineConfig(ann_rerank=0)
        with pytest.raises(BadRequestError, match="ann_lists"):
            EngineConfig(ann_lists=-1)
        # unknown backends list the valid choices in the message
        with pytest.raises(BadRequestError, match="ivf-pq"):
            EngineConfig(backend="faiss")

    def test_removed_lsh_backend_is_a_bad_request(self):
        match = "unknown backend 'lsh' \\(choose from exact, ivf-pq\\)"
        with pytest.raises(BadRequestError, match=match):
            EngineConfig(backend="lsh")
        with pytest.raises(BadRequestError, match=match):
            EngineConfig.from_dict({"backend": "lsh"})
        args = build_parser().parse_args([
            "index", "search", "--model", "m.npz", "--index", "idx",
            "--backend", "lsh",
        ])
        with pytest.raises(BadRequestError, match=match):
            EngineConfig.from_args(args)

    def test_from_dict_and_flags_read_values(self):
        config = EngineConfig.from_dict(
            json.loads('{"model_path": "m.npz", "ann_nprobe": 3, '
                       '"micro_batch_wait_ms": 0.5}')
        )
        assert (config.model_path, config.ann_nprobe,
                config.micro_batch_wait_ms) == ("m.npz", 3, 0.5)
        args = build_parser().parse_args([
            "pipeline", "run", "--model", "m.npz", "--jobs", "4",
        ])
        config = EngineConfig.from_args(args)
        assert (config.model_path, config.jobs) == ("m.npz", 4)

    def test_bad_int_from_dict_and_flags(self, capsys):
        with pytest.raises(BadRequestError, match="bad EngineConfig"):
            EngineConfig.from_dict({"jobs": "many"})
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([
                "pipeline", "run", "--model", "m.npz", "--jobs", "many",
            ])
        assert exit_info.value.code == 2
        assert "jobs expects an integer, got 'many'" in capsys.readouterr().err

    def test_encoder_knobs_from_dict(self, capsys):
        config = EngineConfig.from_dict({
            "encode_dtype": "float32", "encode_block": 128,
        })
        assert config.encode_dtype == "float32"
        assert config.encode_block == 128
        assert EngineConfig.from_dict({}).encode_dtype == "float64"
        assert EngineConfig.from_dict({}).encode_block == 0
        with pytest.raises(BadRequestError, match="encode_dtype"):
            EngineConfig.from_dict({"encode_dtype": "float16"})
        with pytest.raises(BadRequestError, match="encode_block"):
            EngineConfig.from_dict({"encode_block": -1})
        parser = build_parser()
        args = parser.parse_args([
            "search", "--model", "m.npz", "--encode-block", "-1",
        ])
        with pytest.raises(BadRequestError, match="encode_block"):
            EngineConfig.from_args(args)
        with pytest.raises(SystemExit):
            parser.parse_args([
                "search", "--model", "m.npz", "--encode-dtype", "float16",
            ])
        assert "float16" in capsys.readouterr().err

    def test_encoder_knobs_from_args(self):
        parser = build_parser()
        args = parser.parse_args([
            "search", "--model", "m.npz",
            "--encode-dtype", "float32", "--encode-block", "64",
        ])
        config = EngineConfig.from_args(args)
        assert config.encode_dtype == "float32"
        assert config.encode_block == 64
        args = parser.parse_args(["search", "--model", "m.npz"])
        unset = EngineConfig.from_args(args)
        assert unset.encode_dtype == "float64"
        assert unset.encode_block == 0

    def test_from_args_shared_plumbing(self):
        """One adapter covers every subcommand's cache/jobs/batch options."""
        parser = build_parser()
        args = parser.parse_args([
            "index", "build", "--model", "m.npz", "--output", "idx",
            "--jobs", "2", "--cache-dir", "cache", "--batch-size", "32",
            "--shard-size", "64", "--seed", "9",
        ])
        config = EngineConfig.from_args(args, index_root=args.output)
        assert config.model_path == "m.npz"
        assert config.index_root == "idx"
        assert config.jobs == 2
        assert config.cache_dir == "cache"
        assert config.encode_batch_size == 32
        assert config.shard_size == 64
        assert config.seed == 9

        args = parser.parse_args([
            "search", "--model", "m.npz", "--jobs", "3",
        ])
        config = EngineConfig.from_args(args)
        assert (config.model_path, config.jobs) == ("m.npz", 3)
        assert config.cache_dir is None  # unset options keep defaults


# -- MicroBatcher -------------------------------------------------------------------


def _batches(batcher):
    """``(batches, items, widest)``: the batcher's size histogram."""
    sizes = batcher.registry.get("repro_microbatch_size")
    return sizes.totals() if sizes is not None else (0, 0.0, 0.0)


class TestMicroBatcher:
    def test_single_encode(self):
        calls = []

        def encode(trees):
            calls.append(list(trees))
            return np.arange(len(trees), dtype=float).reshape(-1, 1) + 100

        batcher = MicroBatcher(encode, max_batch_size=4, max_wait_s=0)
        assert batcher.encode("t0") == pytest.approx([100.0])
        assert calls == [["t0"]]
        assert _batches(batcher) == (1, 1, 1)  # one batch, not coalesced

    def test_concurrent_calls_coalesce(self):
        release = threading.Event()

        def encode(trees):
            release.wait(timeout=5)
            return np.array([[float(t)] for t in trees])

        batcher = MicroBatcher(encode, max_batch_size=16, max_wait_s=0.05)
        results = {}

        def worker(i):
            results[i] = batcher.encode(i)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        time.sleep(0.2)  # let every worker enqueue behind the leader
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert sorted(results) == list(range(8))
        for i, vector in results.items():
            assert vector == pytest.approx([float(i)])
        _n, items, widest = _batches(batcher)
        assert items == 8
        assert widest > 1  # coalesced

    def test_errors_propagate_to_every_caller(self):
        def encode(trees):
            raise RuntimeError("model exploded")

        batcher = MicroBatcher(encode, max_batch_size=4, max_wait_s=0)
        with pytest.raises(RuntimeError, match="model exploded"):
            batcher.encode("t")
        # the batcher must stay usable after a failed batch
        with pytest.raises(RuntimeError, match="model exploded"):
            batcher.encode("t2")

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda trees: np.zeros((len(trees), 1)),
                         max_batch_size=0)

    def test_encode_many_single_caller(self):
        calls = []

        def encode(trees):
            calls.append(list(trees))
            return np.array([[float(t)] for t in trees])

        batcher = MicroBatcher(encode, max_batch_size=8, max_wait_s=0)
        out = batcher.encode_many([3, 1, 4, 1, 5])
        assert out.shape == (5, 1)
        assert out[:, 0] == pytest.approx([3.0, 1.0, 4.0, 1.0, 5.0])
        # one caller, one batch: the whole list coalesced
        assert calls == [[3, 1, 4, 1, 5]]
        assert _batches(batcher)[2] > 1

    def test_encode_many_spans_batches_beyond_max(self):
        def encode(trees):
            return np.array([[float(t)] for t in trees])

        batcher = MicroBatcher(encode, max_batch_size=2, max_wait_s=0)
        out = batcher.encode_many(list(range(5)))
        assert out[:, 0] == pytest.approx([0.0, 1.0, 2.0, 3.0, 4.0])
        _n, items, widest = _batches(batcher)
        assert items == 5
        assert widest <= 2

    def test_encode_many_empty(self):
        batcher = MicroBatcher(
            lambda trees: np.zeros((len(trees), 1)), max_batch_size=2,
            max_wait_s=0,
        )
        assert batcher.encode_many([]).size == 0
        assert _batches(batcher)[0] == 0

    def test_overflow_beyond_max_batch_size(self):
        """More waiters than one batch can hold: follow-up leaders must
        be woken promptly and every caller must complete."""
        def encode(trees):
            time.sleep(0.01)
            return np.array([[float(t)] for t in trees])

        batcher = MicroBatcher(encode, max_batch_size=2, max_wait_s=0.005)
        results = {}

        def worker(i):
            results[i] = batcher.encode(i)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        started = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        elapsed = time.perf_counter() - started
        assert sorted(results) == list(range(6))
        for i, vector in results.items():
            assert vector == pytest.approx([float(i)])
        _n, items, widest = _batches(batcher)
        assert items == 6
        assert widest <= 2
        # >= 3 batches of ~15ms each; far under the old 50ms-per-round
        # polling worst case (3 rounds x 50ms + encodes)
        assert elapsed < 0.15, f"overflow rounds too slow: {elapsed:.3f}s"


class _SeenWaiting(threading.Condition):
    """A batcher condition that reports its first ``wait``: with one
    caller inside ``encode_many``, that wait is its leader's window."""

    def __init__(self):
        super().__init__()
        self.waiting = threading.Event()

    def wait(self, timeout=None):
        self.waiting.set()
        return super().wait(timeout)


class TestLoadAdaptiveWindow:
    """The leader waits only for announced callers that have not queued
    yet, and never longer than ``max_wait_s``."""

    @staticmethod
    def _recording():
        calls = []

        def encode(trees):
            calls.append(list(trees))
            return np.array([[float(len(t))] for t in trees])

        return calls, encode

    def test_a_lone_announced_caller_does_not_wait(self):
        calls, encode = self._recording()
        batcher = MicroBatcher(encode, max_batch_size=8, max_wait_s=1.0)
        started = time.perf_counter()
        with batcher.arriving() as arrival:
            batcher.encode_many(["t"], arrival=arrival)
        assert time.perf_counter() - started < 0.1
        assert calls == [["t"]]

    def test_a_caller_on_its_way_shares_the_leaders_batch(self):
        calls, encode = self._recording()
        batcher = MicroBatcher(encode, max_batch_size=8, max_wait_s=30.0)
        batcher._cond = _SeenWaiting()
        results = {}

        def leader():
            with batcher.arriving() as arrival:
                results["a"] = batcher.encode_many(["a"], arrival=arrival)

        with batcher.arriving() as arrival:
            thread = threading.Thread(target=leader)
            thread.start()
            # the leader holds its batch open for us, still unqueued
            assert batcher._cond.waiting.wait(timeout=10)
            results["bb"] = batcher.encode_many(["bb"], arrival=arrival)
        thread.join(timeout=10)
        assert calls == [["a", "bb"]]
        assert results["a"].tolist() == [[1.0]]
        assert results["bb"].tolist() == [[2.0]]
        assert _batches(batcher) == (1, 2, 2)

    def test_a_caller_leaving_unqueued_releases_the_leader(self):
        calls, encode = self._recording()
        batcher = MicroBatcher(encode, max_batch_size=8, max_wait_s=30.0)
        batcher._cond = _SeenWaiting()
        took = {}

        def leader():
            started = time.perf_counter()
            with batcher.arriving() as arrival:
                batcher.encode_many(["a"], arrival=arrival)
            took["a"] = time.perf_counter() - started

        with pytest.raises(ValueError):
            with batcher.arriving():
                thread = threading.Thread(target=leader)
                thread.start()
                assert batcher._cond.waiting.wait(timeout=10)
                raise ValueError("bad binary: never queues")
        thread.join(timeout=10)
        assert calls == [["a"]]
        assert took["a"] < 5.0  # released at once, not at max_wait_s

    def test_a_bare_batcher_never_waits(self):
        calls, encode = self._recording()
        batcher = MicroBatcher(encode, max_batch_size=8, max_wait_s=1.0)
        started = time.perf_counter()
        batcher.encode_many(["t", "u"])
        assert time.perf_counter() - started < 0.1
        assert calls == [["t", "u"]]


# -- engine fixtures ----------------------------------------------------------------


@pytest.fixture(scope="module")
def engine(trained_model):
    """An engine with a small firmware corpus ingested (in-memory)."""
    engine = AsteriaEngine(
        EngineConfig(micro_batch_wait_ms=10.0), model=trained_model
    )
    result = engine.ingest(IngestRequest(corpus_images=3, corpus_seed=4))
    assert result.n_rows_total > 0
    return engine


@pytest.fixture(scope="module")
def query_binary():
    package = ProgramGenerator(seed=33).generate_package("qpkg")
    return compile_package(package, "x86")


@pytest.fixture(scope="module")
def query_functions(engine, query_binary):
    encodings = engine.encode(EncodeRequest(binary=query_binary)).encodings
    assert len(encodings) >= 2
    return [e.name for e in encodings[:4]]


# -- lifecycle ----------------------------------------------------------------------


class TestEngineLifecycle:
    def test_model_required(self):
        with pytest.raises(ModelNotFoundError, match="no model"):
            AsteriaEngine(EngineConfig()).model

    def test_missing_checkpoint(self, tmp_path):
        config = EngineConfig(model_path=str(tmp_path / "nope.npz"))
        with pytest.raises(ModelNotFoundError, match="not found"):
            AsteriaEngine(config).model

    def test_encode(self, engine, query_binary):
        result = engine.encode(EncodeRequest(binary=query_binary))
        assert result.binary_name == query_binary.name
        dim = engine.model.config.hidden_dim
        for encoding in result.encodings:
            assert encoding.vector.shape == (dim,)

    def test_encode_unknown_function(self, engine, query_binary):
        with pytest.raises(BadRequestError, match="not found"):
            engine.encode(EncodeRequest(binary=query_binary,
                                        function="nope_fn"))

    def test_query_by_cve(self, engine):
        result = engine.query(QueryRequest(cve_id="CVE-2016-2105", top_k=5))
        assert result.query == "CVE-2016-2105"
        assert 0 < len(result.hits) <= 5
        scores = [hit.score for hit in result.hits]
        assert scores == sorted(scores, reverse=True)

    def test_query_unknown_cve(self, engine):
        with pytest.raises(BadRequestError, match="unknown CVE"):
            engine.query(QueryRequest(cve_id="CVE-1999-0000"))

    def test_minus_one_is_not_the_configured_default(self, engine):
        """-1 is a bad request: a -1 sentinel used to turn
        ``threshold=-1`` into a configured 0.84 cutoff, silently."""
        cve = "CVE-2016-2105"
        with pytest.raises(BadRequestError, match="threshold must be >= 0"):
            engine.query(QueryRequest(cve_id=cve, top_k=None, threshold=-1))
        with pytest.raises(BadRequestError, match="top_k must be >= 0"):
            engine.query_batch([QueryRequest(cve_id=cve, top_k=-1)])

    def test_query_needs_a_source(self, engine, query_binary):
        with pytest.raises(BadRequestError, match="query needs"):
            engine.query(QueryRequest())
        with pytest.raises(BadRequestError, match="function name"):
            engine.query(QueryRequest(binary=query_binary))

    def test_query_by_function_is_deterministic(self, engine, query_binary,
                                                query_functions):
        request = QueryRequest(binary=query_binary,
                               function=query_functions[0], top_k=5)
        first = engine.query(request)
        second = engine.query(request)
        assert [(h.row, h.score) for h in first.hits] \
            == [(h.row, h.score) for h in second.hits]
        assert first.query == f"{query_binary.name}:{query_functions[0]}"

    def test_query_batch_matches_serial(self, engine, query_binary,
                                        query_functions):
        requests = [
            QueryRequest(binary=query_binary, function=name, top_k=4)
            for name in query_functions
        ]
        serial = [engine.query(r) for r in requests]
        batched = engine.query_batch(requests)
        for a, b in zip(serial, batched):
            # same ranking; scores agree to float noise (the batched
            # path fuses Q queries into shared GEMMs, so the low-order
            # bits of the BLAS reductions may differ)
            assert [h.row for h in a.hits] == [h.row for h in b.hits]
            assert [h.score for h in a.hits] == pytest.approx(
                [h.score for h in b.hits], rel=1e-5, abs=1e-7
            )
            assert a.query == b.query

    def test_query_batch_mixed_sources_and_params(self, engine,
                                                  query_binary,
                                                  query_functions):
        requests = [
            QueryRequest(cve_id="CVE-2016-2105", top_k=3),
            QueryRequest(binary=query_binary,
                         function=query_functions[0], top_k=5),
            QueryRequest(cve_id="CVE-2016-2105", top_k=5, threshold=0.2),
        ]
        batched = engine.query_batch(requests)
        serial = [engine.query(r) for r in requests]
        for a, b in zip(serial, batched):
            assert a.query == b.query
            assert [h.row for h in a.hits] == [h.row for h in b.hits]
        assert len(batched[0].hits) <= 3

    def test_query_batch_counts_one_batch(self, engine):
        before = engine.stats()
        engine.query_batch([
            QueryRequest(cve_id="CVE-2016-2105", top_k=2),
            QueryRequest(cve_id="CVE-2014-4877", top_k=2),
        ])
        after = engine.stats()
        assert after.n_query_batches == before.n_query_batches + 1
        assert after.n_queries == before.n_queries + 2

    def test_query_batch_empty(self, engine):
        assert engine.query_batch([]) == []

    def test_query_batch_bad_member_raises(self, engine, query_binary):
        with pytest.raises(BadRequestError, match="not found"):
            engine.query_batch([
                QueryRequest(cve_id="CVE-2016-2105"),
                QueryRequest(binary=query_binary, function="nope"),
            ])

    def test_stats_report_index_footprint(self, engine):
        stats = engine.stats()
        assert stats.index_dtype == "float32"
        assert stats.index_vector_bytes > 0
        assert stats.ann_backend == "exact"
        assert stats.index_mmap is False  # in-memory engine store

    def test_top_k_defaults_from_the_request(self, engine):
        """A query carries its own defaults: depth 10 and no cutoff."""
        request = QueryRequest(cve_id="CVE-2016-2105")
        assert (request.top_k, request.threshold) == (DEFAULT_TOP_K, None)
        result = engine.query(request)
        assert result.hits == engine.query(QueryRequest(
            cve_id="CVE-2016-2105", top_k=10, threshold=None
        )).hits
        assert len(result.hits) == min(10, engine.stats().index_rows)

    def test_compare(self, engine, query_binary, query_functions):
        from repro.decompiler import decompile_function

        result = engine.compare(CompareRequest(
            binary1=query_binary, function1=query_functions[0],
            binary2=query_binary, function2=query_functions[0],
        ))
        fn = decompile_function(
            query_binary, query_binary.function_named(query_functions[0])
        )
        encoding = engine.model.encode_function(fn)
        assert result.ast_similarity == pytest.approx(
            engine.model.similarity(encoding, encoding, calibrate=False)
        )
        assert result.similarity == pytest.approx(
            engine.model.similarity(encoding, encoding)
        )

    def test_compare_unknown_function(self, engine, query_binary):
        with pytest.raises(BadRequestError, match="no function"):
            engine.compare(CompareRequest(
                binary1=query_binary, function1="nope",
                binary2=query_binary, function2="nope",
            ))

    def test_missing_binary_path(self, engine):
        with pytest.raises(InputNotFoundError, match="no such binary"):
            engine.encode(EncodeRequest(binary="/nope/missing.rbin"))

    def test_stats_never_loads_the_model(self, tmp_path):
        fresh = AsteriaEngine(EngineConfig(model_path=str(tmp_path / "x")))
        stats = fresh.stats()
        assert stats.model_loaded is False
        assert stats.model_fingerprint is None
        assert stats.index_rows == 0

    def test_stats_counters(self, engine):
        before = engine.stats()
        engine.query(QueryRequest(cve_id="CVE-2016-2105", top_k=2))
        after = engine.stats()
        assert after.n_queries == before.n_queries + 1
        assert after.index_rows == before.index_rows
        assert after.config == engine.config.to_dict()

    def test_encoder_stats_counters(self, trained_model, query_binary):
        fresh = AsteriaEngine(EngineConfig(), model=trained_model)
        assert fresh.stats().n_encoded_trees == 0
        result = fresh.encode(EncodeRequest(binary=query_binary))
        stats = fresh.stats()
        assert stats.n_encoded_trees == len(result.encodings) > 0
        assert stats.encode_block_rows >= 1

    def test_encode_dtype_flows_to_pipeline(self, trained_model,
                                            query_binary):
        fast = AsteriaEngine(
            EngineConfig(encode_dtype="float32"), model=trained_model
        )
        reference = AsteriaEngine(EngineConfig(), model=trained_model)
        f32 = fast.encode(EncodeRequest(binary=query_binary))
        f64 = reference.encode(EncodeRequest(binary=query_binary))
        assert f32.encodings[0].vector.dtype == np.float32
        assert f64.encodings[0].vector.dtype == np.float64
        for a, b in zip(f32.encodings, f64.encodings):
            np.testing.assert_allclose(a.vector, b.vector, atol=1e-5)

    def test_train_adopts_model(self, tmp_path):
        result = train_model(TrainRequest(
            packages=2, pairs=6, epochs=1,
            output_path=str(tmp_path / "trained.npz"),
        ))
        assert result.n_train > 0
        assert (tmp_path / "trained.npz").exists()
        # a new engine over the trained model serves queries immediately
        engine = AsteriaEngine(EngineConfig(), model=result.model)
        assert engine.stats().model_loaded is True
        engine.ingest(IngestRequest(corpus_images=2, corpus_seed=1))
        hits = engine.query(QueryRequest(cve_id="CVE-2011-0762", top_k=3))
        assert hits.n_rows > 0

    def test_stats_fingerprint_without_side_effects(self, trained_model,
                                                    tmp_path):
        # stats() must not build the pipeline/cache (no cache_dir mkdir)
        cache_dir = tmp_path / "never-created"
        engine = AsteriaEngine(EngineConfig(cache_dir=str(cache_dir)),
                               model=trained_model)
        stats = engine.stats()
        assert stats.model_loaded is True
        assert stats.model_fingerprint is None
        assert not cache_dir.exists()
        # once the pipeline exists, the fingerprint is reported
        engine.pipeline
        assert engine.stats().model_fingerprint is not None

    def test_ingest_images_and_binaries_together(self, trained_model,
                                                 query_binary):
        """Images plus loose binaries are one pipeline run, and store the
        rows an ingest of the images, then of the binaries, stores."""
        from repro.binformat.binwalk import UnpackError
        from repro.evalsuite.vulnsearch import build_firmware_dataset
        from repro.pipeline.cache import binary_digest
        from repro.pipeline.stages import unpack_stage

        dataset = build_firmware_dataset(n_images=3, seed=6)
        occurrences = []
        for image in dataset.images:
            try:
                occurrences.extend(unpack_stage(image))
            except UnpackError:
                pass
        inside = occurrences[0]  # a loose binary also inside an image
        binaries = [query_binary, (inside, "loose")]
        occurrences += [query_binary, inside]
        digests = {binary_digest(b) for b in occurrences}

        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        runs_before = engine.obs.value("repro_pipeline_runs_total")
        result = engine.ingest(IngestRequest(
            images=dataset.images, binaries=binaries,
        ))
        assert engine.obs.value("repro_pipeline_runs_total") \
            == runs_before + 1
        assert result.n_images == len(dataset.images)
        assert result.n_binaries == len(occurrences)
        assert result.n_extracted == result.n_unique_binaries == len(digests)
        assert result.n_rows_total == result.n_functions == len(engine.store)

        two = AsteriaEngine(EngineConfig(), model=trained_model)
        two.ingest(IngestRequest(images=dataset.images))
        two.ingest(IngestRequest(binaries=binaries))
        assert [engine.store.metadata_at(row)
                for row in range(len(engine.store))] \
            == [two.store.metadata_at(row) for row in range(len(two.store))]
        one_vectors = engine.store.vectors().take(np.arange(len(engine.store)))
        two_vectors = two.store.vectors().take(np.arange(len(two.store)))
        assert one_vectors.tobytes() == two_vectors.tobytes()

    def test_ingest_empty_corpus_still_reports_stats(self, trained_model):
        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        result = engine.ingest(IngestRequest(corpus_images=0))
        assert result.n_functions == 0
        assert "stage  decompile" in result.summary()  # CLI prints it

    def test_open_index_requires_root(self, engine):
        with pytest.raises(IndexStoreError):
            engine.open_index()

    def test_open_missing_index(self, trained_model, tmp_path):
        config = EngineConfig(index_root=str(tmp_path / "nope"))
        with pytest.raises(IndexStoreError, match="no manifest"):
            AsteriaEngine(config, model=trained_model).open_index()

    def test_generations_layout_is_refused_not_served_stale(
        self, trained_model, tmp_path
    ):
        """A root whose ``CURRENT`` names a hot-swapped generation still
        holds the pre-swap store at its top level; opening it is an
        index error naming the directory to open instead."""
        dim = trained_model.config.hidden_dim
        vectors = np.random.default_rng(3).normal(size=(12, dim))

        def fill(root, n):
            store = EmbeddingStore.create(root, dim=dim)
            for i in range(n):
                store.add(FunctionEncoding(
                    name=f"f{i}", arch="x86", binary_name="b",
                    vector=vectors[i], callee_count=i % 3,
                ))
            store.flush()

        root = tmp_path / "idx"
        active = root / "generations" / "gen-00001"
        fill(root, 8)  # the store from before the swap
        fill(active, 12)
        (root / "CURRENT").write_text("generations/gen-00001\n")
        query = QueryRequest(encoding=FunctionEncoding(
            name="q", arch="x86", binary_name="b", vector=vectors[0],
            callee_count=0,
        ), top_k=3, threshold=None)
        stale = AsteriaEngine(EngineConfig(index_root=str(root)),
                              model=trained_model)
        with pytest.raises(IndexStoreError, match=re.escape(str(active))):
            stale.open_index()
        with pytest.raises(IndexStoreError, match=re.escape(str(active))):
            stale.query(query)
        # the active generation opened directly is an ordinary store
        result = AsteriaEngine(
            EngineConfig(index_root=str(active)), model=trained_model
        ).query(query)
        assert result.n_rows == 12 and len(result.hits) == 3

    def test_create_existing_index(self, trained_model, tmp_path):
        root = str(tmp_path / "idx")
        engine = AsteriaEngine(EngineConfig(index_root=root),
                               model=trained_model)
        engine.create_index()
        with pytest.raises(IndexStoreError, match="already exists"):
            AsteriaEngine(EngineConfig(index_root=root),
                          model=trained_model).create_index()

    def test_durable_index_round_trip(self, trained_model, tmp_path):
        root = str(tmp_path / "fw")
        writer = AsteriaEngine(EngineConfig(index_root=root),
                               model=trained_model)
        ingest = writer.ingest(IngestRequest(corpus_images=2, corpus_seed=5))
        reader = AsteriaEngine(EngineConfig(index_root=root),
                               model=trained_model)
        reader.open_index()
        result = reader.query(QueryRequest(cve_id="CVE-2016-2105",
                                           top_k=3))
        assert result.n_rows == ingest.n_rows_total


# -- concurrency --------------------------------------------------------------------


class TestConcurrentQueries:
    N_THREADS = 16
    PER_THREAD = 3

    def test_storm_matches_serial_and_coalesces(self, engine, query_binary,
                                                query_functions):
        requests = [
            QueryRequest(binary=query_binary, function=name, top_k=5)
            for name in query_functions
        ]
        reference = {
            r.function: engine.query(r).hits for r in requests
        }
        batches_before = engine.stats().micro_batches

        results = []
        errors = []
        lock = threading.Lock()
        barrier = threading.Barrier(self.N_THREADS)

        def worker(i):
            barrier.wait()
            try:
                for j in range(self.PER_THREAD):
                    request = requests[(i + j) % len(requests)]
                    result = engine.query(request)
                    with lock:
                        results.append((request.function, result))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert len(results) == self.N_THREADS * self.PER_THREAD

        # bit-for-bit identical to the serial reference
        for function, result in results:
            expected = reference[function]
            assert [(h.row, h.score) for h in result.hits] \
                == [(h.row, h.score) for h in expected]

        # and the micro-batcher actually coalesced concurrent encodes
        stats = engine.stats()
        assert stats.micro_batches > batches_before
        assert stats.micro_batch_max > 1, (
            "16 barrier-started threads never shared a batch"
        )


class TestWhoTheWindowWaitsFor:
    """The engine announces a query to its batcher exactly when it has a
    binary to encode."""

    def test_a_lone_binary_query_does_not_wait_out_the_window(
        self, trained_model, query_binary, query_functions
    ):
        engine = AsteriaEngine(
            EngineConfig(micro_batch_wait_ms=1000.0), model=trained_model
        )
        for encoding in _random_encodings(trained_model, 40):
            engine.store.add(encoding)
        engine.store.flush()
        request = QueryRequest(binary=query_binary,
                               function=query_functions[0], top_k=5)
        engine.query(request)  # extracts the binary
        started = time.perf_counter()
        assert engine.query(request).hits
        assert time.perf_counter() - started < 0.5
        wait = engine.obs.get("repro_microbatch_wait_seconds")
        assert wait.totals()[1] / wait.totals()[0] < 0.5

    def _announced(self, engine, monkeypatch):
        announced = []
        arriving = engine.batcher.arriving

        def spy():
            announced.append(1)
            return arriving()

        monkeypatch.setattr(engine.batcher, "arriving", spy)
        return announced

    def test_cve_and_encoding_queries_are_never_announced(
        self, engine, monkeypatch
    ):
        announced = self._announced(engine, monkeypatch)
        [cve] = engine.query_batch([QueryRequest(cve_id="CVE-2016-2105")])
        engine.query(QueryRequest(encoding=cve.encoding, top_k=3))
        assert announced == []
        assert engine.batcher._on_way == 0

    def test_a_binary_query_is_announced_once_and_settles(
        self, engine, query_binary, query_functions, monkeypatch
    ):
        announced = self._announced(engine, monkeypatch)
        engine.query_batch([
            QueryRequest(cve_id="CVE-2016-2105"),
            QueryRequest(binary=query_binary, function=query_functions[0]),
            QueryRequest(binary=query_binary, function=query_functions[1]),
        ])
        assert announced == [1]
        with pytest.raises(BadRequestError):
            engine.query(QueryRequest(binary=query_binary,
                                      function="no_such_function"))
        assert announced == [1, 1]
        assert engine.batcher._on_way == 0


def _random_encodings(model, n, seed=0):
    vectors = np.random.default_rng(seed).normal(
        size=(n, model.config.hidden_dim)
    )
    return [
        FunctionEncoding(name=f"f{i}", arch="x86", binary_name=f"b{i % 3}",
                         vector=vector, callee_count=i % 5, ast_size=10)
        for i, vector in enumerate(vectors)
    ]


class TestSweepOutsideTheLock:
    """An in-process query takes the engine lock only to pin the index
    it sweeps; the sweep itself runs outside it."""

    def test_n_rows_is_the_swept_snapshot(self, trained_model):
        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        *flushed, pending = _random_encodings(trained_model, 21)
        for encoding in flushed:
            engine.store.add(encoding)
        engine.store.flush()
        engine.store.add(pending)  # buffered: no query can see it yet
        result = engine.query(QueryRequest(
            encoding=flushed[0], top_k=None, threshold=None
        ))
        assert result.n_rows == 20
        assert len(result.hits) == 20

    def test_stats_answers_during_a_sweep(self, trained_model, monkeypatch):
        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        encodings = _random_encodings(trained_model, 40)
        for encoding in encodings:
            engine.store.add(encoding)
        engine.store.flush()
        entered, release = threading.Event(), threading.Event()
        sweep = BruteForceIndex.top_k_batch

        def held_open(index, *args, **kwargs):
            entered.set()
            release.wait(timeout=10)
            return sweep(index, *args, **kwargs)

        monkeypatch.setattr(BruteForceIndex, "top_k_batch", held_open)
        results = []
        query = threading.Thread(target=lambda: results.append(engine.query(
            QueryRequest(encoding=encodings[0], top_k=3, threshold=None)
        )))
        query.start()
        try:
            assert entered.wait(timeout=10)
            began = time.perf_counter()
            stats = engine.stats()
            waited = time.perf_counter() - began
        finally:
            release.set()
            query.join(timeout=30)
        assert not query.is_alive()
        assert waited < 0.1, f"stats() waited {waited:.3f}s on a sweep"
        assert stats.index_rows == 40
        assert [len(r.hits) for r in results] == [3]

    def test_storm_during_ingest_matches_the_exact_prefix(
        self, trained_model, query_binary, tmp_path
    ):
        engine = AsteriaEngine(
            EngineConfig(index_root=str(tmp_path / "fw")), model=trained_model
        )
        binaries = [
            compile_package(
                ProgramGenerator(seed=seed).generate_package(f"s{seed}"),
                "x86",
            )
            for seed in range(40, 45)
        ]
        engine.ingest(IngestRequest(binaries=binaries[:1]))
        queries = engine.encode(
            EncodeRequest(binary=query_binary)
        ).encodings[:4]
        requests = [
            QueryRequest(encoding=q, top_k=5, threshold=None)
            for q in queries
        ]
        observed, errors = [], []
        ingested = threading.Event()
        started = threading.Barrier(8 + 1)  # the storm + the ingester

        def storm():
            try:
                observed.append(engine.query_batch(requests))
                started.wait(timeout=30)
                while True:
                    done = ingested.is_set()
                    observed.append(engine.query_batch(requests))
                    if done:  # one more batch on the final corpus
                        return
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=storm) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave pins, sweeps and flushes
        try:
            for thread in threads:
                thread.start()
            started.wait(timeout=30)
            for binary in binaries[1:]:
                engine.ingest(IngestRequest(binaries=[binary]))
        finally:
            ingested.set()
            for thread in threads:
                thread.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        store = engine.store
        snapshots = {r.n_rows for batch in observed for r in batch}
        assert min(snapshots) < len(store) == max(snapshots)
        expected = {}
        for n in snapshots:
            prefix = make_index(
                "exact", trained_model, store.vectors().slice_rows(0, n),
                store.callee_counts()[:n],
            )
            expected[n] = [
                [(hit.row, hit.score) for hit in neighbors]
                for neighbors in prefix.top_k_batch(queries, k=5)
            ]
        for batch in observed:
            for i, result in enumerate(batch):
                assert [(h.row, h.score) for h in result.hits] \
                    == expected[result.n_rows][i]

    def test_flushed_rows_join_the_rings(
        self, trained_model, tmp_path, monkeypatch
    ):
        """The count layout is the index snapshot's: rows flushed with
        the query's count rank in the next query's rings exactly as the
        full sort says, and an index pinned before the flush still
        answers for its own prefix only."""
        monkeypatch.setattr(ann, "SCORE_BLOCK_ROWS", 16)  # 80 rows ring
        engine = AsteriaEngine(
            EngineConfig(index_root=str(tmp_path / "fw")), model=trained_model
        )
        for encoding in _random_encodings(trained_model, 80, seed=1):
            engine.store.add(encoding)
        engine.store.flush()
        query = FunctionEncoding(
            name="q", arch="x86", binary_name="query",
            vector=np.asarray(engine.store.vectors().row(3), np.float64),
            callee_count=int(engine.store.callee_counts()[3]),
        )
        request = QueryRequest(encoding=query, top_k=10, threshold=None)

        def full_sort(n):
            prefix = make_index(
                "exact", trained_model, engine.store.vectors().slice_rows(0, n),
                engine.store.callee_counts()[:n],
            )
            scores = prefix.score_matrix([query])[0]
            order = np.lexsort((np.arange(n), -scores))[:10]
            return [(int(row), float(scores[row])) for row in order]

        swept = []  # the index each sweep ran on, as the engine pinned it
        top_k_batch = ann.AnnIndex.top_k_batch

        def spy(index, *args, **kwargs):
            swept.append(index)
            return top_k_batch(index, *args, **kwargs)

        monkeypatch.setattr(ann.AnnIndex, "top_k_batch", spy)
        before = engine.query(request)
        pinned = swept[-1]
        assert [(h.row, h.score) for h in before.hits] == full_sort(80)
        # near copies of the query, half of them calling as many functions
        rng = np.random.default_rng(2)
        for i in range(40):
            engine.store.add(FunctionEncoding(
                name=f"near{i}", arch="x86", binary_name="fresh",
                vector=query.vector + rng.normal(scale=0.01, size=query.vector.size),
                callee_count=query.callee_count + i % 2, ast_size=10,
            ))
        engine.store.flush()
        after = engine.query(request)
        assert after.n_rows == 120
        assert [(h.row, h.score) for h in after.hits] == full_sort(120)
        assert any(h.row >= 80 for h in after.hits)
        assert [
            (n.row, n.score) for n in pinned.top_k(query, k=10)
        ] == full_sort(80)



class TestIngestOutsideTheLock:
    """An ingest runs its pipeline without the engine lock and takes the
    lock only to append, flush and publish its rows."""

    def test_stats_and_queries_answer_during_an_ingest(
        self, trained_model, query_binary, monkeypatch
    ):
        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        encodings = _random_encodings(trained_model, 40)
        for encoding in encodings:
            engine.store.add(encoding)
        engine.store.flush()
        entered, release = threading.Event(), threading.Event()
        encode = corpus.encode_stage

        def held_open(*args, **kwargs):
            entered.set()
            release.wait(timeout=10)
            return encode(*args, **kwargs)

        monkeypatch.setattr(corpus, "encode_stage", held_open)
        request = QueryRequest(encoding=encodings[0], top_k=3, threshold=None)
        results = []
        ingest = threading.Thread(target=lambda: results.append(
            engine.ingest(IngestRequest(binaries=[query_binary]))
        ))
        ingest.start()
        try:
            assert entered.wait(timeout=10)
            began = time.perf_counter()
            stats = engine.stats()
            waited = time.perf_counter() - began
            during = engine.query(request)
        finally:
            release.set()
            ingest.join(timeout=30)
        assert not ingest.is_alive()
        assert waited < 0.1, f"stats() waited {waited:.3f}s on an ingest"
        assert stats.index_rows == during.n_rows == 40
        assert len(during.hits) == 3
        [result] = results
        assert result.n_rows_total == 40 + result.n_functions > 40
        assert engine.query(request).n_rows == result.n_rows_total

    def test_concurrent_ingests_append_whole_requests(
        self, trained_model, query_binary, query_functions, tmp_path
    ):
        """Pipeline runs and cold query extractions share the pipeline's
        cache lock; each request's rows land as one contiguous block."""
        engine = AsteriaEngine(
            EngineConfig(index_root=str(tmp_path / "fw"),
                         cache_dir=str(tmp_path / "cache")),
            model=trained_model,
        )
        tagged = [
            (compile_package(
                ProgramGenerator(seed=seed).generate_package(f"c{seed}"),
                "x86",
            ), f"img{seed}")
            for seed in range(50, 54)
        ]
        query = QueryRequest(binary=query_binary, function=query_functions[0],
                             top_k=3, threshold=None)
        results, errors = [], []

        def run(call):
            try:
                results.append(call())
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(lambda item=item: engine.ingest(
                IngestRequest(binaries=[item])),))
            for item in tagged
        ] + [
            threading.Thread(target=run, args=(lambda: engine.query(query),))
            for _ in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave runs, extracts and appends
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        ingests = [r for r in results if hasattr(r, "n_rows_total")]
        store = engine.store
        assert len(store) == sum(r.n_functions for r in ingests) \
            == max(r.n_rows_total for r in ingests)
        image_ids = [store.metadata_at(row).image_id
                     for row in range(len(store))]
        blocks = [image_id for image_id, _ in itertools.groupby(image_ids)]
        assert sorted(blocks) == [image_id for _binary, image_id in tagged]

    def test_append_and_flush_are_the_index_stage(
        self, trained_model, query_binary, tmp_path
    ):
        engine = AsteriaEngine(
            EngineConfig(index_root=str(tmp_path / "fw")), model=trained_model
        )
        engine.ingest(IngestRequest(corpus_images=1, corpus_seed=2))
        before = engine.obs.value(
            "repro_pipeline_stage_seconds_total", stage="index"
        )
        result = engine.ingest(IngestRequest(binaries=[query_binary]))
        index_s = result.times.index_s
        assert index_s > 0
        grown = engine.obs.value(
            "repro_pipeline_stage_seconds_total", stage="index"
        ) - before
        assert grown == pytest.approx(index_s)

class TestOneEncoder:
    """Query and compare encode a function through the one served
    columns encoder, without the engine lock."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_compare_scores_the_query_encoding(self, trained_model,
                                               query_binary, dtype):
        engine = AsteriaEngine(
            EngineConfig(encode_dtype=dtype, micro_batch_wait_ms=0.0),
            model=trained_model,
        )
        engine.ingest(IngestRequest(binaries=[query_binary]))
        names = [
            e.name for e in
            engine.encode(EncodeRequest(binary=query_binary)).encodings
        ]
        assert len(names) >= 4
        for name in names:
            query = engine.query(QueryRequest(
                binary=query_binary, function=name, top_k=1
            ))
            assert query.encoding.vector.dtype == np.dtype(dtype)
            result = engine.compare(CompareRequest(
                binary1=query_binary, function1=name,
                binary2=query_binary, function2=name,
            ))
            assert result.ast_similarity == trained_model.similarity_matrix(
                [query.encoding], query.encoding.vector[None, :],
                calibrate=False,
            )[0, 0], name
            # same function, same callee count: the factor is exactly 1
            assert result.similarity == result.ast_similarity, name

    def test_compare_scores_a_hit_as_the_query_did(self, trained_model,
                                                   query_binary):
        """compare and the sweep score with one head: over a float64
        store, ``compare(f, hit)`` is the hit's score bit for bit (the
        per-pair head differed in the low bits for most pairs)."""
        engine = AsteriaEngine(
            EngineConfig(store_dtype="float64", micro_batch_wait_ms=0.0),
            model=trained_model,
        )
        engine.ingest(IngestRequest(binaries=[query_binary]))
        n_pairs = 0
        for encoding in engine.encode(
            EncodeRequest(binary=query_binary)
        ).encodings:
            result = engine.query(QueryRequest(
                binary=query_binary, function=encoding.name, top_k=None,
            ))
            for hit in result.hits:
                compared = engine.compare(CompareRequest(
                    binary1=query_binary, function1=encoding.name,
                    binary2=query_binary, function2=hit.name,
                ))
                assert compared.similarity == hit.score, (
                    encoding.name, hit.name
                )
                n_pairs += 1
        assert n_pairs >= 16

    def test_compare_runs_while_the_engine_lock_is_held(
        self, engine, query_binary, query_functions
    ):
        held, release = threading.Event(), threading.Event()

        def hold_the_lock():
            with engine._lock:
                held.set()
                release.wait(timeout=30)

        results = []
        holder = threading.Thread(target=hold_the_lock)
        worker = threading.Thread(target=lambda: results.append(
            engine.compare(CompareRequest(
                binary1=query_binary, function1=query_functions[0],
                binary2=query_binary, function2=query_functions[1],
            ))
        ))
        holder.start()
        try:
            assert held.wait(timeout=10)
            worker.start()
            worker.join(timeout=5)
            finished = not worker.is_alive()
        finally:
            release.set()
            holder.join(timeout=30)
            worker.join(timeout=30)
        assert finished, "compare waited on the engine lock"
        assert 0.0 <= results[0].similarity <= 1.0


# -- query is the one-request case of query_batch -----------------------------------


@pytest.fixture(scope="module")
def durable_index(tmp_path_factory, trained_model):
    root = str(tmp_path_factory.mktemp("differential") / "fw")
    AsteriaEngine(
        EngineConfig(index_root=root), model=trained_model
    ).ingest(IngestRequest(corpus_images=3, corpus_seed=4))
    return root


class TestQueryMatchesOneRequestBatch:
    """``engine.query(r)`` and ``engine.query_batch([r])[0]`` must agree
    bit for bit on every backend."""

    @pytest.fixture(
        scope="class",
        params=["exact", "ivf-pq"],
        # ids keep their one-worker names so test history stays comparable
        ids=lambda backend: f"{backend}-workers1",
    )
    def served(self, request, durable_index, trained_model):
        engine = AsteriaEngine(
            EngineConfig(index_root=durable_index, backend=request.param),
            model=trained_model,
        )
        engine.open_index()
        return engine

    @pytest.fixture(params=["encoding", "cve_id", "binary"])
    def query_request(self, request, served, query_binary, query_functions):
        if request.param == "encoding":
            _entry, encoding = served.cve_library()["CVE-2014-4877"]
            return QueryRequest(encoding=encoding, top_k=5)
        if request.param == "cve_id":
            return QueryRequest(cve_id="CVE-2016-2105", top_k=5)
        return QueryRequest(binary=query_binary,
                            function=query_functions[0], top_k=5)

    def test_identical_results(self, served, query_request):
        single = served.query(query_request)
        batched = served.query_batch([query_request])[0]
        assert single.hits  # an empty answer would compare equal vacuously
        # SearchHit equality covers rows, metadata and float scores exactly
        assert single.hits == batched.hits
        assert single.query == batched.query
        assert single.n_rows == batched.n_rows

    def test_identical_errors(self, served, query_binary):
        from repro.api.errors import DeadlineExceededError

        for kind, bad in [
            (BadRequestError,
             QueryRequest(binary=query_binary, function="nope_fn")),
            (BadRequestError, QueryRequest(cve_id="CVE-1999-0000")),
            (DeadlineExceededError,
             QueryRequest(cve_id="CVE-2016-2105", deadline=0.0)),
        ]:
            with pytest.raises(kind) as single:
                served.query(bad)
            with pytest.raises(kind) as batched:
                served.query_batch([bad])
            assert type(single.value) is type(batched.value)
            assert str(single.value) == str(batched.value)

    def test_single_query_counters(self, served):
        def counts():
            latency = served.obs.get("repro_query_seconds")
            return (
                served.obs.value("repro_queries_total"),
                latency.count if latency is not None else 0,
                served.obs.value("repro_query_batches_total"),
            )

        queries, observed, batches = counts()
        served.query(QueryRequest(cve_id="CVE-2016-2105", top_k=2))
        assert counts() == (queries + 1, observed + 1, batches)


class TestEngineObservability:
    def test_stats_counters_are_registry_views(self, engine):
        before = engine.stats().n_queries
        engine.query(QueryRequest(cve_id="CVE-2016-2105", top_k=1))
        stats = engine.stats()
        assert stats.n_queries == before + 1
        assert stats.n_queries == int(engine.obs.value("repro_queries_total"))

    def test_query_emits_latency_histogram_and_span_metrics(self, engine):
        engine.query(QueryRequest(cve_id="CVE-2016-2105", top_k=1))
        latency = engine.obs.get("repro_query_seconds")
        assert latency is not None and latency.count >= 1
        # the ANN sweep under the query recorded its candidate sets
        candidates = engine.obs.get("repro_ann_candidates")
        assert candidates is not None and candidates.count >= 1

    def test_metrics_text_is_scrapeable(self, engine):
        text = engine.metrics_text()
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_index_rows" in text
        assert "repro_model_loaded 1" in text

    def test_slow_query_threshold_counts_and_logs(self, trained_model,
                                                  caplog):
        import logging

        slow = AsteriaEngine(
            EngineConfig(slow_query_ms=0.0), model=trained_model
        )
        slow.ingest(IngestRequest(corpus_images=2, corpus_seed=4))
        with caplog.at_level(logging.WARNING, logger="repro.api.engine"):
            slow.query(QueryRequest(cve_id="CVE-2016-2105", top_k=1))
        assert slow.obs.value("repro_slow_queries_total") == 1
        slow_lines = [r for r in caplog.records if "slow query" in r.message]
        assert slow_lines
        # the log line carries the serialised span tree
        assert "engine.query" in slow_lines[0].getMessage()

    def test_slow_query_disabled_by_default(self, engine):
        before = engine.obs.value("repro_slow_queries_total")
        engine.query(QueryRequest(cve_id="CVE-2016-2105", top_k=1))
        assert engine.obs.value("repro_slow_queries_total") == before

    def test_flush_metrics_returns_snapshot(self, engine):
        snapshot = engine.flush_metrics()
        assert snapshot["repro_queries_total"]["series"][0]["value"] >= 1
        assert snapshot["repro_model_loaded"]["series"][0]["value"] == 1.0

    def test_microbatcher_coalescing_metrics(self, engine, query_binary):
        requests = [
            QueryRequest(binary=query_binary, function=e.name, top_k=1)
            for e in engine.encode(EncodeRequest(binary=query_binary)
                                   ).encodings[:4]
        ]
        engine.query_batch(requests)
        batches, items, _widest = engine.obs.get(
            "repro_microbatch_size"
        ).totals()
        assert batches >= 1
        assert items >= len(requests)
        wait = engine.obs.get("repro_microbatch_wait_seconds")
        assert wait is not None and wait.count >= len(requests)


class TestMetricsAreStats:
    """``/metrics`` gauges are set from the ``/v1/stats`` snapshot, so the
    two agree on every row of the table -- not just the ones CI greps."""

    def test_every_polled_gauge_reads_as_in_stats(
        self, tmp_path, trained_model
    ):
        engine = AsteriaEngine(
            EngineConfig(index_root=str(tmp_path / "fw"),
                         cache_dir=str(tmp_path / "cache")),
            model=trained_model,
        )
        engine.ingest(IngestRequest(corpus_images=2, corpus_seed=4))
        engine.query(QueryRequest(cve_id="CVE-2016-2105", top_k=3))
        snapshot = engine.flush_metrics()
        stats = engine.stats().to_dict()
        for metric in METRICS.values():
            if metric.polled:
                [series] = snapshot[metric.name]["series"]
                assert series["value"] == float(stats[metric.stat]), metric
            elif metric.stat is not None:
                assert engine.obs.value(metric.name) == stats[metric.stat], \
                    metric
        assert stats["index_rows"] > 0 and stats["cache_misses"] > 0
        assert stats["n_queries"] == 1

    def test_a_cold_binary_query_is_one_tree_miss(
        self, trained_model, query_binary, query_functions
    ):
        """A cold binary query looks its trees up once: the re-check
        before the put is not a lookup, so it is not a second miss."""
        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        tree_misses = engine.obs.value(
            "repro_pipeline_cache_misses_total", kind="tree"
        )
        for _ in range(2):  # a cold, then a memoized, binary query
            engine.query(QueryRequest(
                binary=query_binary, function=query_functions[0], top_k=1
            ))
            assert engine.obs.value(
                "repro_pipeline_cache_misses_total", kind="tree"
            ) == tree_misses + 1
            stats = engine.stats()
            assert (stats.cache_hits, stats.cache_misses) == (0, 1)

    def test_the_extract_memo_evicts_the_least_recently_queried(
        self, trained_model, monkeypatch
    ):
        """Past its bound the memo drops the binary queried longest ago;
        that binary's next query reads the pipeline's tree cache (one
        hit, no extraction) and answers as before."""
        monkeypatch.setattr(query_module, "EXTRACT_MEMO_MAX_BINARIES", 2)
        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        for encoding in _random_encodings(trained_model, 40):
            engine.store.add(encoding)
        engine.store.flush()
        requests = {}
        for seed in (60, 61, 62):
            binary = compile_package(
                ProgramGenerator(seed=seed).generate_package(f"m{seed}"),
                "x86",
            )
            [name, *_rest] = extract_binary(
                binary, trained_model.config.min_ast_size
            ).names
            requests[seed] = QueryRequest(binary=binary, function=name,
                                          top_k=5)

        def tree_lookups():
            return tuple(
                engine.obs.value(f"repro_pipeline_cache_{outcome}_total",
                                 kind="tree")
                for outcome in ("hits", "misses")
            )

        engine.query(requests[60])
        before = engine.query(requests[61])
        engine.query(requests[60])  # 61 is now the least recently queried
        engine.query(requests[62])  # ... and the one the memo drops
        assert tree_lookups() == (0, 3)
        engine.query(requests[60])  # still memoized: no lookup
        assert tree_lookups() == (0, 3)
        again = engine.query(requests[61])
        assert tree_lookups() == (1, 3)  # a cache hit, not an extraction
        assert len(again.hits) == 5
        assert [(h.row, h.score) for h in again.hits] \
            == [(h.row, h.score) for h in before.hits]
