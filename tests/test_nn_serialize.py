"""Round-trip tests for model checkpoints and embedding shards."""

import re

import numpy as np
import pytest

from repro.core.model import Asteria, AsteriaConfig, FunctionEncoding
from repro.index.store import EmbeddingStore
from repro.nn.serialize import load_state, save_state


class TestStateRoundTrip:
    def test_arrays_and_meta_preserved_exactly(self, tmp_path):
        state = {
            "w": np.arange(12, dtype=np.float64).reshape(3, 4),
            "b32": np.array([1.5, -2.5], dtype=np.float32),
            "counts": np.array([[1, 2], [3, 4]], dtype=np.int64),
            "flags": np.array([True, False]),
        }
        meta = {"dim": 4, "nested": {"names": ["a", "b"], "ok": True}}
        path = tmp_path / "ckpt.npz"
        save_state(path, state, meta=meta)
        loaded, loaded_meta = load_state(path)
        assert set(loaded) == set(state)
        for key, array in state.items():
            assert loaded[key].dtype == array.dtype
            assert loaded[key].shape == array.shape
            assert np.array_equal(loaded[key], array)
        assert loaded_meta == meta

    def test_suffix_added_on_load(self, tmp_path):
        save_state(tmp_path / "model", {"w": np.zeros(3)})
        state, meta = load_state(tmp_path / "model")
        assert np.array_equal(state["w"], np.zeros(3))
        assert meta == {}

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_state(tmp_path / "x.npz", {"__meta__": np.zeros(1)})

    def test_model_state_roundtrip(self, tmp_path):
        model = Asteria(AsteriaConfig(hidden_dim=16, seed=3))
        path = tmp_path / "asteria.npz"
        model.save(path)
        loaded = Asteria.load(path)
        assert loaded.config == model.config
        original = model.siamese.state_dict()
        restored = loaded.siamese.state_dict()
        assert set(original) == set(restored)
        for key in original:
            assert restored[key].dtype == original[key].dtype
            assert np.array_equal(restored[key], original[key])


def _flip(data: bytes, at: int, bit: int) -> bytes:
    return data[:at] + bytes([data[at] ^ (1 << bit)]) + data[at + 1:]


class TestDamagedArchives:
    def test_a_lowered_shape_digit_fails_its_crc(self, tmp_path):
        path = tmp_path / "x.npz"
        save_state(path, {"x": np.arange(12_000, dtype=np.int32)})
        data = path.read_bytes()
        digit = data.index(b"'shape': (12000,)") + len(b"'shape': (1")
        # "12000" -> "10000": np.load reads 10 000 elements and stops
        # 8 000 bytes short of the member end, where its own CRC check is
        path.write_bytes(_flip(data, digit, 1))
        with pytest.raises(ValueError, match="CRC-32 mismatch"):
            load_state(path)

    def test_every_shape_digit_flip_of_a_checkpoint_is_refused(
        self, tmp_path
    ):
        path = tmp_path / "asteria.npz"
        Asteria(AsteriaConfig(hidden_dim=16, seed=3)).save(path)
        data = path.read_bytes()
        digits = [
            at
            for m in re.finditer(rb"'shape': \(([0-9, ]*)\)", data)
            for at in range(m.start(1), m.end(1))
            if data[at:at + 1].isdigit()
        ]
        assert digits
        for at in digits:
            for bit in (0, 1):
                path.write_bytes(_flip(data, at, bit))
                with pytest.raises(ValueError):
                    load_state(path)

    def test_a_truncated_checkpoint_is_refused(self, tmp_path):
        path = tmp_path / "asteria.npz"
        Asteria(AsteriaConfig(hidden_dim=16, seed=3)).save(path)
        data = path.read_bytes()
        for cut in range(0, len(data), max(1, len(data) // 97)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                load_state(path)


class TestShardRoundTrip:
    def test_shard_preserves_dtype_shape_and_metadata(self, tmp_path):
        store = EmbeddingStore.create(
            tmp_path / "idx", dim=6, shard_size=2, dtype="float64"
        )
        rng = np.random.default_rng(0)
        encodings = [
            FunctionEncoding(
                name=f"sub_{i:x}",
                arch="arm",
                binary_name=f"openssl-1.0.{i}",
                vector=rng.normal(size=6),
                callee_count=i,
                ast_size=20 + i,
            )
            for i in range(5)
        ]
        for i, encoding in enumerate(encodings):
            store.add(encoding, image_id=f"NetGear/R7000/{i}")
        store.flush()

        reopened = EmbeddingStore.open(tmp_path / "idx")
        assert reopened.vectors().dtype == np.float64
        assert reopened.vectors().shape == (5, 6)
        assert reopened.callee_counts().dtype == np.int64
        for i, encoding in enumerate(encodings):
            meta = reopened.metadata_at(i)
            assert meta.name == encoding.name
            assert meta.arch == encoding.arch
            assert meta.binary_name == encoding.binary_name
            assert meta.callee_count == encoding.callee_count
            assert meta.ast_size == encoding.ast_size
            assert meta.image_id == f"NetGear/R7000/{i}"
            assert np.array_equal(reopened.vectors().row(i), encoding.vector)

    def test_float32_vectors_stay_float32(self, tmp_path):
        store = EmbeddingStore.create(tmp_path / "idx32", dim=4)
        store.add(
            FunctionEncoding(
                name="f", arch="x86", binary_name="b",
                vector=np.ones(4, dtype=np.float32), callee_count=0,
            )
        )
        store.flush()
        assert EmbeddingStore.open(
            tmp_path / "idx32"
        ).vectors().dtype == np.float32
