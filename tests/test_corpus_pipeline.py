"""Staged corpus pipeline: artifact cache, worker-pool determinism, call sites."""

import functools
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import AsteriaEngine, EngineConfig, IngestRequest
from repro.compiler.pipeline import compile_package
from repro.core.model import Asteria, AsteriaConfig, FunctionEncoding
from repro.evalsuite.vulnsearch import CVE_LIBRARY, build_firmware_dataset
from repro.pipeline import ArtifactCache, CorpusPipeline
from repro.lang.generator import ProgramGenerator
from repro.nn.serialize import load_state
from repro.nn.treebatch import resolve_node_budget
from repro.nn.treelstm import flatten_tree, unflatten_tree
from repro.pipeline.cache import OBJECTS_DIR, binary_digest
from repro.pipeline.stages import extract_binary, unpack_stage
from repro.utils.fsio import file_sha256


@pytest.fixture(scope="module")
def firmware():
    return build_firmware_dataset(n_images=4, seed=6)


@pytest.fixture(scope="module")
def cold_run(trained_model, firmware):
    """One cold serial run over an in-memory cache (the reference)."""
    pipeline = CorpusPipeline(trained_model)
    return pipeline, pipeline.run(images=firmware.images)


def _vectors(result):
    return np.stack([e.vector for _image_id, e in result.encodings])


def _rows(result):
    return [
        (image_id, e.binary_name, e.name, e.callee_count, e.ast_size)
        for image_id, e in result.encodings
    ]


class TestTreeRoundTrip:
    def test_real_trees_survive(self, trained_model, firmware):
        from repro.binformat.binwalk import unpack_firmware
        from repro.pipeline.stages import decompile_stage, preprocess_one

        image = next(i for i in firmware.images if not i.unknown_format)
        binary = unpack_firmware(image)[0]
        n_checked = 0
        for fn in decompile_stage(binary):
            tree = preprocess_one(fn, trained_model.config.min_ast_size)
            if tree is None:
                continue
            rebuilt = unflatten_tree(*flatten_tree(tree))
            assert [n.label for n in rebuilt.postorder()] == [
                n.label for n in tree.postorder()
            ]
            n_checked += 1
        assert n_checked > 0

    def test_single_node(self):
        from repro.nn.treelstm import BinaryTreeNode

        rebuilt = unflatten_tree(*flatten_tree(BinaryTreeNode(label=7)))
        assert rebuilt.label == 7
        assert rebuilt.left is None and rebuilt.right is None


class TestArtifactCacheAccounting:
    def test_cold_run_misses_once_per_unique_binary(self, cold_run):
        _pipeline, cold = cold_run
        stats = cold.stats
        assert stats.n_functions > 0
        assert stats.n_unique_binaries > 0
        assert stats.cache.encoding_misses == stats.n_unique_binaries
        assert stats.cache.tree_misses == stats.n_unique_binaries
        assert stats.cache.hits == 0
        assert stats.n_extracted == stats.n_unique_binaries
        assert stats.n_encoded == stats.n_unique_binaries

    def test_warm_run_skips_decompile_and_encode(self, cold_run, firmware):
        pipeline, cold = cold_run
        warm = pipeline.run(images=firmware.images)
        stats = warm.stats
        assert stats.n_extracted == 0
        assert stats.n_encoded == 0
        assert stats.cache.encoding_hits == stats.n_unique_binaries
        assert stats.cache.misses == 0
        # the trees cache is never even consulted on a full encoding hit
        assert stats.cache.tree_hits == 0
        assert np.array_equal(_vectors(cold), _vectors(warm))
        assert _rows(cold) == _rows(warm)

    def test_on_disk_warm_across_instances(
        self, tmp_path, trained_model, firmware, cold_run
    ):
        _pipeline, reference = cold_run
        root = tmp_path / "cache"
        CorpusPipeline(
            trained_model, cache=ArtifactCache(root)
        ).run(images=firmware.images)
        assert list((root / OBJECTS_DIR).glob("*.npz"))

        warm = CorpusPipeline(
            trained_model, cache=ArtifactCache(root)
        ).run(images=firmware.images)
        assert warm.stats.n_extracted == 0
        assert warm.stats.n_encoded == 0
        assert np.array_equal(_vectors(reference), _vectors(warm))
        assert _rows(reference) == _rows(warm)


class TestArtifactCacheInvalidation:
    def test_weight_change_invalidates_encodings_not_trees(
        self, tmp_path, trained_model, firmware
    ):
        root = tmp_path / "cache"
        CorpusPipeline(
            trained_model, cache=ArtifactCache(root)
        ).run(images=firmware.images)

        # untrained model, identical config: only the weights differ
        fresh = Asteria(AsteriaConfig(hidden_dim=32))
        assert fresh.fingerprint() != trained_model.fingerprint()
        run = CorpusPipeline(
            fresh, cache=ArtifactCache(root)
        ).run(images=firmware.images)
        stats = run.stats
        assert stats.cache.encoding_hits == 0
        assert stats.cache.encoding_misses == stats.n_unique_binaries
        assert stats.cache.tree_hits == stats.n_unique_binaries
        assert stats.n_extracted == 0  # cached trees reused
        assert stats.n_encoded == stats.n_unique_binaries  # encode re-ran

    def test_batch_size_change_keeps_encodings(
        self, tmp_path, trained_model, firmware
    ):
        root = tmp_path / "cache"
        CorpusPipeline(
            trained_model, cache=ArtifactCache(root)
        ).run(images=firmware.images)
        run = CorpusPipeline(
            trained_model,
            cache=ArtifactCache(root),
            encode_batch_size=17,
        ).run(images=firmware.images)
        # encodings are keyed by weights + dtype, not batch size: all hit
        assert run.stats.cache.encoding_hits == run.stats.n_unique_binaries
        assert run.stats.n_encoded == 0

    def test_encode_dtype_keys_encodings_not_plans(
        self, tmp_path, trained_model, firmware
    ):
        root = tmp_path / "cache"
        cold = CorpusPipeline(
            trained_model, cache=ArtifactCache(root)
        ).run(images=firmware.images)
        run = CorpusPipeline(
            trained_model,
            cache=ArtifactCache(root),
            encode_dtype="float32",
        ).run(images=firmware.images)
        stats = run.stats
        # same weights, different dtype: encodings re-run over cached trees
        assert stats.cache.encoding_hits == 0
        assert stats.n_encoded == stats.n_unique_binaries
        assert stats.n_extracted == 0
        f64 = _vectors(cold)
        f32 = _vectors(run)
        assert f32.dtype == np.float32
        np.testing.assert_allclose(f32, f64, atol=1e-5)

    def test_min_ast_size_change_invalidates_trees(
        self, tmp_path, trained_model, firmware
    ):
        root = tmp_path / "cache"
        CorpusPipeline(
            trained_model, cache=ArtifactCache(root)
        ).run(images=firmware.images)

        strict = Asteria(AsteriaConfig(hidden_dim=32, min_ast_size=9))
        run = CorpusPipeline(
            strict, cache=ArtifactCache(root)
        ).run(images=firmware.images)
        stats = run.stats
        assert stats.cache.tree_hits == 0
        assert stats.cache.tree_misses == stats.n_unique_binaries
        assert stats.n_extracted == stats.n_unique_binaries


class TestArtifactCacheRecovery:
    def test_corrupt_object_is_a_miss_and_rewritten(
        self, tmp_path, trained_model, firmware
    ):
        root = tmp_path / "cache"
        cold = CorpusPipeline(
            trained_model, cache=ArtifactCache(root)
        ).run(images=firmware.images)
        victim = sorted((root / OBJECTS_DIR).glob("enc-*.npz"))[0]
        victim.write_bytes(b"garbage")

        warm = CorpusPipeline(
            trained_model, cache=ArtifactCache(root)
        ).run(images=firmware.images)
        stats = warm.stats
        assert stats.cache.encoding_misses == 1
        assert stats.cache.tree_hits == 1  # fell back to the cached trees
        assert stats.n_extracted == 0
        assert stats.n_encoded == 1
        assert np.array_equal(_vectors(cold), _vectors(warm))
        # the re-encode restored the object: fully warm again
        again = CorpusPipeline(
            trained_model, cache=ArtifactCache(root)
        ).run(images=firmware.images)
        assert again.stats.cache.misses == 0

    @pytest.mark.parametrize("damage", ["truncated", "empty"])
    def test_entry_without_checksum_is_a_miss(self, tmp_path, damage):
        """No manifest records a checksum: each object is verified by
        its own zip CRC-32, so a torn one is unlinked and is a miss."""
        root = tmp_path / "cache"
        cache = ArtifactCache(root)
        cache.put("enc-k", {"x": np.ones(4)}, {})
        obj = root / OBJECTS_DIR / "enc-k.npz"
        obj.write_bytes(
            obj.read_bytes()[:-16] if damage == "truncated" else b""
        )
        reopened = ArtifactCache(root)
        assert reopened.get("enc-k") is None
        assert not obj.exists() and len(reopened) == 0

    def test_a_put_is_durable_without_flush(self, tmp_path):
        """A run cut short before its end keeps every object it put: a
        new cache on the same root hits it (no index to publish)."""
        root = tmp_path / "cache"
        ArtifactCache(root).put("enc-k", {"x": np.arange(4.0)}, {"n": 1})
        reopened = ArtifactCache(root)
        assert len(reopened) == 1
        state, meta = reopened.get("enc-k")
        assert np.array_equal(state["x"], np.arange(4.0))
        assert meta == {"n": 1}

    def test_missing_object_is_a_plain_miss(self, tmp_path, caplog):
        cache = ArtifactCache(tmp_path / "cache")
        with caplog.at_level("WARNING"):
            assert cache.get("enc-absent") is None
        assert not caplog.records

    def test_cache_with_a_leftover_manifest_stays_warm(
        self, tmp_path, trained_model, firmware
    ):
        """A cache written when a ``manifest.json`` indexed ``objects/``
        hits every object, and the manifest is neither read nor
        rewritten."""
        root = tmp_path / "cache"
        cold = CorpusPipeline(
            trained_model, cache=ArtifactCache(root)
        ).run(images=firmware.images)
        assert sorted(p.name for p in root.iterdir()) == [OBJECTS_DIR]
        manifest = root / "manifest.json"
        manifest.write_text(json.dumps({
            "format_version": 1,
            "entries": {
                path.stem: {"file": path.name, "sha256": file_sha256(path)}
                for path in sorted((root / OBJECTS_DIR).glob("*.npz"))
            },
        }, separators=(",", ":"), sort_keys=True))
        before = manifest.read_bytes()

        warm = CorpusPipeline(
            trained_model, cache=ArtifactCache(root)
        ).run(images=firmware.images)
        assert warm.stats.cache.misses == 0
        assert warm.stats.n_extracted == 0 and warm.stats.n_encoded == 0
        assert np.array_equal(_vectors(cold), _vectors(warm))
        assert manifest.read_bytes() == before


@functools.lru_cache(maxsize=None)
def _stored_objects():
    """The raw bytes of one real ``trees`` and one ``enc`` object, with
    the ``(state, meta)`` each was written from."""
    binary = compile_package(
        ProgramGenerator(seed=21).generate_package("crc"), "x86"
    )
    extracted = extract_binary(binary, 5)
    rng = np.random.default_rng(0)
    encodings = [
        FunctionEncoding(
            name=name, arch=extracted.arch,
            binary_name=extracted.binary_name, vector=rng.normal(size=16),
            callee_count=i % 3, ast_size=int(size),
        )
        for i, (name, size) in enumerate(
            zip(extracted.names, extracted.ast_sizes)
        )
    ]
    objects = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(tmp)
        cache.put_trees("d" * 64, 5, extracted)
        cache.put_encodings(
            "d" * 64, "model", 5, extracted.binary_name, extracted.arch,
            encodings,
        )
        for path in sorted(Path(tmp, OBJECTS_DIR).glob("*.npz")):
            state, meta = load_state(path)
            objects[path.stem.split("-")[0]] = (
                path.stem, path.read_bytes(), state, meta,
            )
    assert sorted(objects) == ["enc", "trees"]
    return objects


def _get_damaged(key, damaged):
    """``get`` of an object stored as ``damaged``; a miss must also have
    unlinked the file."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(tmp)
        path = Path(tmp, OBJECTS_DIR, f"{key}.npz")
        path.write_bytes(bytes(damaged))
        found = cache.get(key)
        assert found is not None or not path.exists()
    return found


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["trees", "enc"]),
    damage=st.sampled_from(["flip", "truncate"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    bit=st.integers(0, 7),
)
def test_a_damaged_object_is_a_miss_or_the_original(kind, damage, where, bit):
    """A single-bit flip or a truncation anywhere in a stored object
    either fails to load -- a miss, with the file unlinked -- or loads
    exactly the arrays and meta that were put; never different data."""
    key, data, state, meta = _stored_objects()[kind]
    offset = int(where * len(data))
    if damage == "flip":
        damaged = bytearray(data)
        damaged[offset] ^= 1 << bit
    else:
        damaged = data[:offset]
    found = _get_damaged(key, damaged)
    if found is None:
        return
    got_state, got_meta = found
    assert got_meta == meta
    assert sorted(got_state) == sorted(state)
    for name, array in state.items():
        assert got_state[name].dtype == array.dtype
        assert np.array_equal(got_state[name], array)


@pytest.mark.parametrize("kind", ["trees", "enc"])
def test_a_flipped_shape_digit_is_a_miss(kind):
    """A shape digit flipped to a smaller one makes np.load read the
    member short of its end, where the zip CRC-32 is checked; the whole
    member is verified first, so it is a miss, not a shorter array."""
    key, data, _state, _meta = _stored_objects()[kind]
    flipped = 0
    start = data.find(b"'shape': (")
    while start >= 0:
        start += len(b"'shape': (")
        for offset in range(start, data.index(b")", start)):
            if not chr(data[offset]).isdigit():
                continue
            for bit in range(4):
                damaged = bytearray(data)
                damaged[offset] ^= 1 << bit
                assert _get_damaged(key, damaged) is None
                flipped += 1
        start = data.find(b"'shape': (", start)
    assert flipped


def _unique_binaries(images):
    """Each distinct binary of ``images``, by content digest."""
    return {
        binary_digest(binary): binary
        for image in images if not image.unknown_format
        for binary in unpack_stage(image)
    }


def _fill_three_kind_cache(root, model, images):
    """A cache as written when ``ctrees`` plans were a cached kind: a
    pipeline run's ``trees`` and ``enc`` objects plus one ``ctrees``
    plan per binary."""
    cache = ArtifactCache(root)
    pipeline = CorpusPipeline(model, cache=cache)
    result = pipeline.run(images=images)
    min_ast_size = model.config.min_ast_size
    node_budget = resolve_node_budget(0)
    digests = sorted(_unique_binaries(images))
    for digest in digests:
        plan = model.compile_columns(
            cache.get_trees(digest, min_ast_size).columns(),
            pipeline.encode_batch_size, node_budget=node_budget,
        )
        cache.put_ctrees(
            digest, min_ast_size, pipeline.encode_batch_size, node_budget,
            plan,
        )
    assert len(list((root / OBJECTS_DIR).glob("ctrees-*.npz"))) \
        == len(digests)
    return result


class TestThreeKindCacheStillOpens:
    """A cache that still holds ``ctrees`` objects serves its ``trees``
    and ``enc`` objects; the plans are never read."""

    def test_reopened_run_hits_trees_and_encodings(
        self, tmp_path, trained_model, firmware
    ):
        root = tmp_path / "cache"
        cold = _fill_three_kind_cache(root, trained_model, firmware.images)
        pipeline = CorpusPipeline(trained_model, cache=ArtifactCache(root))
        warm = pipeline.run(images=firmware.images)
        assert warm.stats.n_extracted == 0
        assert warm.stats.n_encoded == 0
        assert warm.stats.cache.encoding_hits == warm.stats.n_unique_binaries
        assert warm.stats.cache.misses == 0
        assert np.array_equal(_vectors(cold), _vectors(warm))
        assert _rows(cold) == _rows(warm)

        by_digest = _unique_binaries(firmware.images)
        registry = pipeline.registry
        hits = registry.value("repro_pipeline_cache_hits_total", kind="tree")
        misses = registry.value("repro_pipeline_cache_misses_total")
        for digest, binary in sorted(by_digest.items()):
            assert len(pipeline.extracted(binary, digest))
        assert registry.value(
            "repro_pipeline_cache_hits_total", kind="tree"
        ) == hits + len(by_digest)
        assert registry.value("repro_pipeline_cache_misses_total") == misses


class TestWriteBudget:
    def test_single_binary_ingest_fsyncs_and_cache_kinds(
        self, tmp_path, trained_model, monkeypatch
    ):
        """One binary into an existing durable index over a persistent
        cache: the cache writes one ``trees`` and one ``enc`` object per
        binary, nothing else."""
        engine = AsteriaEngine(
            EngineConfig(cache_dir=str(tmp_path / "cache"),
                         index_root=str(tmp_path / "fw")),
            model=trained_model,
        )
        first, binary = (
            compile_package(
                ProgramGenerator(seed=seed).generate_package(f"wb{seed}"),
                "x86",
            )
            for seed in (12, 13)
        )
        engine.ingest(IngestRequest(binaries=[first]))  # creates the index
        calls = []
        real_fsync = os.fsync

        def fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        result = engine.ingest(IngestRequest(binaries=[binary]))
        monkeypatch.undo()
        assert result.n_functions > 0
        assert len(calls) == 8
        objects = sorted(
            path.name for path in (tmp_path / "cache" / OBJECTS_DIR).iterdir()
        )
        assert [name.split("-")[0] for name in objects] \
            == ["enc", "enc", "trees", "trees"]


class TestParallelDeterminism:
    def test_jobs_output_identical_to_serial(
        self, trained_model, firmware, cold_run
    ):
        _pipeline, serial = cold_run
        parallel = CorpusPipeline(trained_model, jobs=2).run(
            images=firmware.images
        )
        assert _rows(serial) == _rows(parallel)
        assert np.array_equal(_vectors(serial), _vectors(parallel))
        assert serial.stats.n_functions == parallel.stats.n_functions
        assert serial.stats.n_skipped_small == parallel.stats.n_skipped_small

    def test_extract_all_preserves_order(self, trained_model, firmware):
        from repro.binformat.binwalk import unpack_firmware
        from repro.pipeline import extract_all

        binaries = [
            binary
            for image in firmware.images
            if not image.unknown_format
            for binary in unpack_firmware(image)
        ]
        min_size = trained_model.config.min_ast_size
        serial = extract_all(binaries, min_size, jobs=1)
        pooled = extract_all(binaries, min_size, jobs=2)
        assert len(serial) == len(pooled) == len(binaries)
        for a, b in zip(serial, pooled):
            assert a.names == b.names
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.lefts, b.lefts)
            assert np.array_equal(a.rights, b.rights)
            assert np.array_equal(a.callee_sizes, b.callee_sizes)
            assert a.n_skipped_small == b.n_skipped_small


class TestCallSites:
    def test_index_firmware_matches_seed_loop(
        self, trained_model, firmware, make_vuln_search
    ):
        from repro.binformat.binwalk import UnpackError, unpack_firmware
        from repro.decompiler.hexrays import decompile_binary

        reference = []
        for image in firmware.images:
            try:
                binaries = unpack_firmware(image)
            except UnpackError:
                continue
            for binary in binaries:
                for fn in decompile_binary(binary, skip_errors=True):
                    if fn.ast_size() < trained_model.config.min_ast_size:
                        continue
                    reference.append(
                        (image, binary.name, trained_model.encode_function(fn))
                    )

        indexed = make_vuln_search().index_firmware(firmware)
        assert [(im.identifier, bn, e.name) for im, bn, e in reference] == [
            (im.identifier, bn, e.name) for im, bn, e in indexed
        ]
        assert np.allclose(
            np.stack([e.vector for _im, _bn, e in reference]),
            np.stack([e.vector for _im, _bn, e in indexed]),
            atol=1e-10,
        )
        assert [e.callee_count for _im, _bn, e in reference] == [
            e.callee_count for _im, _bn, e in indexed
        ]

    def test_encode_library_is_cached(self, make_vuln_search):
        cache = ArtifactCache.in_memory()
        engine = make_vuln_search(cache=cache).engine
        first = engine.cve_library()
        # the engine memoizes: repeat calls return the same library
        assert engine.cve_library() is first
        # a fresh engine sharing the artifact cache hits cached encodings
        fresh = make_vuln_search(cache=cache).engine
        second = fresh.cve_library()
        assert fresh.obs.value(
            "repro_pipeline_cache_hits_total", kind="encoding"
        ) >= len(CVE_LIBRARY)
        assert set(first) == {entry.cve_id for entry in CVE_LIBRARY}
        for cve_id, (entry, encoding) in first.items():
            assert encoding.name == entry.function_name
            _entry2, encoding2 = second[cve_id]
            assert np.array_equal(encoding.vector, encoding2.vector)
            assert encoding.callee_count == encoding2.callee_count

    def test_ingest_result_carries_pipeline_stats(
        self, trained_model, firmware
    ):
        from repro.api import AsteriaEngine, EngineConfig, IngestRequest

        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        result = engine.ingest(IngestRequest(images=firmware.images))
        assert result.n_functions == len(engine.store) \
            == result.n_rows_total > 0
        assert result.n_unique_binaries > 0
        assert result.cache.encoding_misses == result.n_unique_binaries

    def test_measure_offline_pipeline(self, trained_model, buildroot_small):
        from repro.evalsuite.timing import measure_offline_pipeline

        cache = ArtifactCache.in_memory()
        cold = measure_offline_pipeline(
            buildroot_small, trained_model, cache=cache
        )
        assert cold.n_functions > 0
        assert cold.times.decompile_s > 0
        warm = measure_offline_pipeline(
            buildroot_small, trained_model, cache=cache
        )
        assert warm.n_extracted == 0
        assert warm.n_encoded == 0
        assert warm.n_functions == cold.n_functions


class TestPipelineCLI:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory, trained_model):
        path = tmp_path_factory.mktemp("model") / "asteria.npz"
        trained_model.save(path)
        return str(path)

    def test_run_cold_then_warm(self, model_path, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "pipeline", "run", "--model", model_path, "--images", "3",
            "--seed", "4", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "stage  decompile" in cold_out
        assert "encodings: 0 hits" in cold_out

        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "extracted 0 of" in warm_out
        assert "encoded 0 binaries" in warm_out
        assert "/ 0 misses" in warm_out

    def test_index_build_jobs_and_cache_identical(
        self, model_path, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.index.store import EmbeddingStore

        assert main([
            "index", "build", "--model", model_path,
            "--output", str(tmp_path / "serial"),
            "--images", "3", "--seed", "4",
        ]) == 0
        assert main([
            "index", "build", "--model", model_path,
            "--output", str(tmp_path / "parallel"),
            "--images", "3", "--seed", "4",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        capsys.readouterr()
        serial = EmbeddingStore.open(str(tmp_path / "serial"))
        parallel = EmbeddingStore.open(str(tmp_path / "parallel"))
        assert np.array_equal(serial.vectors(), parallel.vectors())
        assert [serial.metadata_at(row).name for row in range(len(serial))] \
            == [parallel.metadata_at(row).name
                for row in range(len(parallel))]


class TestFloat32Ranking:
    """The float32 fast path must preserve search rankings, not just values."""

    def test_top10_ranking_overlap(self, trained_model, buildroot_small):
        from repro.evalsuite.timing import corpus_columns
        from repro.nn.treebatch import TreeColumns

        trees = corpus_columns(
            buildroot_small, trained_model.config.min_ast_size
        )
        assert trees, "corpus produced no encodable functions"
        base = len(trees)
        while len(trees) < 1000:  # the 1k-corpus ranking fixture
            trees.append(trees[len(trees) % base])

        plan = trained_model.compile_columns(TreeColumns.concat(trees))
        f64 = trained_model.encode_plan(plan)
        f32 = trained_model.encode_plan(plan, dtype="float32")
        np.testing.assert_allclose(f32, f64, atol=1e-5)

        def top10(matrix):
            scores = trained_model.siamese.similarity_from_matrix(
                matrix[:25], matrix
            )
            # deterministic tiebreak by corpus index, so the duplicated
            # fixture rows (exactly-equal scores) rank identically in
            # both dtypes and only real score flips count as divergence
            n = scores.shape[1]
            return [
                set(np.lexsort((np.arange(n), -scores[q]))[:10].tolist())
                for q in range(scores.shape[0])
            ]

        overlap = [
            len(a & b) / 10.0
            for a, b in zip(top10(f64), top10(f32.astype(np.float64)))
        ]
        assert np.mean(overlap) >= 0.98, (
            f"float32 top-10 overlap {np.mean(overlap):.3f} < 0.98 "
            f"(per-query: {sorted(overlap)[:5]}...)"
        )
