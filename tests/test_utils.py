"""Tests for repro.utils: deterministic RNG, seed derivation, and the
one commit protocol under every durable file."""

import os
import stat

import numpy as np
import pytest

import repro.faults as faults
from repro.core.model import FunctionEncoding
from repro.index.store import EmbeddingStore
from repro.pipeline.cache import ArtifactCache
from repro.utils import fsio
from repro.utils.logging import get_logger
from repro.utils.rng import RNG, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_differs_by_name(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_differs_by_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_not_concatenation(self):
        # ("ab", "c") must differ from ("a", "bc")
        assert derive_seed(7, "ab", "c") != derive_seed(7, "a", "bc")

    def test_non_negative_63_bit(self):
        for seed in (0, 1, 2 ** 62, 123456789):
            value = derive_seed(seed, "x")
            assert 0 <= value < 2 ** 63


class TestRNG:
    def test_same_seed_same_stream(self):
        a, b = RNG(5), RNG(5)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_child_independent_of_parent_consumption(self):
        a = RNG(5)
        a.randint(0, 100)  # consume some parent state
        b = RNG(5)
        assert a.child("x").randint(0, 10 ** 6) == b.child("x").randint(0, 10 ** 6)

    def test_randint_bounds_inclusive(self):
        rng = RNG(0)
        values = {rng.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_choice_weighted(self):
        rng = RNG(1)
        picks = [rng.choice(["a", "b"], weights=[0.0, 1.0]) for _ in range(20)]
        assert set(picks) == {"b"}

    def test_sample_distinct(self):
        rng = RNG(2)
        sample = rng.sample(range(10), 10)
        assert sorted(sample) == list(range(10))

    def test_sample_too_many_raises(self):
        with pytest.raises(ValueError):
            RNG(0).sample([1, 2], 3)

    def test_shuffle_is_permutation(self):
        rng = RNG(3)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # overwhelmingly likely

    def test_random_in_unit_interval(self):
        rng = RNG(4)
        assert all(0.0 <= rng.random() < 1.0 for _ in range(100))


class TestLogging:
    def test_namespaced(self):
        assert get_logger("foo").name == "repro.foo"
        assert get_logger("repro.bar").name == "repro.bar"


@pytest.fixture
def syscalls(monkeypatch):
    """Record, in order, every fsync (split into file/dir), rename and
    failpoint the code under test issues."""
    events = []
    real_fsync, real_replace, real_inject = os.fsync, os.replace, faults.inject

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "data"
        events.append((f"fsync-{kind}", None))
        return real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.path.basename(str(dst))))
        return real_replace(src, dst)

    def inject(name):
        events.append(("failpoint", name))
        return real_inject(name)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(faults, "inject", inject)
    return events


def _kinds(events):
    return [kind for kind, _detail in events]


ONE_COMMIT = ["fsync-data", "replace", "fsync-dir"]


class TestAtomicWrite:
    """Each durable file is written, fsynced and renamed exactly once."""

    def test_sequence_and_digest(self, tmp_path, syscalls):
        target = tmp_path / "blob.bin"
        digest = fsio.atomic_write(
            target, lambda handle: handle.write(b"payload"), "test.point"
        )
        assert syscalls == [
            ("fsync-data", None), ("failpoint", "test.point"),
            ("replace", "blob.bin"), ("fsync-dir", None),
        ]
        assert target.read_bytes() == b"payload"
        assert digest == fsio.file_sha256(target)
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_commit_leaves_old_file_and_a_tmp(self, tmp_path):
        target = tmp_path / "blob.bin"
        target.write_bytes(b"old")
        faults.activate("test.point", "raise", times=1)
        try:
            with pytest.raises(faults.FaultInjected):
                fsio.atomic_write(
                    target, lambda handle: handle.write(b"new"), "test.point"
                )
        finally:
            faults.clear()
        assert target.read_bytes() == b"old"
        assert (tmp_path / "blob.bin.tmp").read_bytes() == b"new"

    def test_cache_put_is_one_commit(self, tmp_path, syscalls):
        cache = ArtifactCache(tmp_path / "cache")
        del syscalls[:]
        cache.put("enc-k", {"x": np.arange(4)}, {"n": 4})
        assert _kinds(syscalls) == [
            "fsync-data", "failpoint", "replace", "fsync-dir",
        ]
        assert syscalls[1:3] == [
            ("failpoint", "cache.put.pre_rename"), ("replace", "enc-k.npz"),
        ]

    def test_write_ann_state_is_one_commit_plus_manifest(
        self, tmp_path, syscalls
    ):
        store = EmbeddingStore.create(tmp_path / "idx", dim=4)
        del syscalls[:]
        store.write_ann_state({"kind": "ivf-pq"}, {"codes": np.zeros(3)})
        assert [e for e in syscalls if e[0] in ("failpoint", "replace")] == [
            ("failpoint", "ann.persist.pre_rename"),
            ("replace", "ann-ivf-pq.npz"),
            ("failpoint", "store.manifest.pre_rename"),
            ("replace", "manifest.json"),
        ]
        assert _kinds(syscalls).count("fsync-data") == 2
        assert _kinds(syscalls).count("fsync-dir") == 2

    def test_single_shard_flush_is_two_commits_plus_manifest(
        self, tmp_path, syscalls
    ):
        store = EmbeddingStore.create(tmp_path / "idx", dim=4)
        store.add(FunctionEncoding(
            name="f", arch="x86", binary_name="b", vector=np.ones(4),
            callee_count=1, ast_size=9,
        ))
        del syscalls[:]
        assert store.flush() == 1
        assert [e for e in syscalls if e[0] in ("failpoint", "replace")] == [
            ("replace", "shard-00000.meta.npz"),
            ("failpoint", "store.flush.pre_rename"),
            ("replace", "shard-00000.npy"),
            ("failpoint", "store.flush.pre_manifest"),
            ("failpoint", "store.manifest.pre_rename"),
            ("replace", "manifest.json"),
        ]
        # every rename sits between its own data fsync and dir fsync
        commits = [k for k in _kinds(syscalls) if k != "failpoint"]
        assert commits == ONE_COMMIT * 3
