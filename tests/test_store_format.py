"""Store format 3: one checksummed, columnar file per shard.

Covers the durable-write contract at every ``store.*`` failpoint (for
both writers, ``add`` + ``flush`` and bulk ``append_rows``), the column
round trip (unicode, empty and long strings, dictionary codes that widen
past one byte, int32 counts that refuse to wrap) and what a reader pays:
``callee_counts`` decodes no string, ``metadata_at`` only its own row.
"""

import dataclasses
import gc
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.faults as faults
from repro.core.model import FunctionEncoding
from repro.faults import FaultInjected
from repro.index.store import EmbeddingStore, StoredFunction, StoreError

DIM = 4
INT32 = np.iinfo(np.int32)
STORE_FAILPOINTS = [
    name for name in faults.FAILPOINTS if name.startswith("store.")
]


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.clear()
    yield
    faults.clear()


def _rows(lo: int, hi: int) -> dict:
    """Columns for rows ``[lo, hi)``, a pure function of the row."""
    rows = range(lo, hi)
    return {
        "vectors": np.stack([
            np.random.default_rng(row).normal(size=DIM) for row in rows
        ]).astype(np.float32).reshape(-1, DIM),
        "callee_counts": [row % 5 for row in rows],
        "ast_sizes": [10 + row for row in rows],
        "names": [f"fn_{row}" for row in rows],
        "binary_names": [f"bin-{row % 3}" for row in rows],
        "arches": ["x86" if row % 2 else "arm" for row in rows],
        "image_ids": [f"img/{row // 4}" for row in rows],
    }


def _stored(row: int) -> StoredFunction:
    column = {key: values[0] for key, values in _rows(row, row + 1).items()}
    return StoredFunction(
        row=row, name=column["names"], binary_name=column["binary_names"],
        arch=column["arches"], callee_count=column["callee_counts"],
        ast_size=column["ast_sizes"], image_id=column["image_ids"],
    )


def _write(store: EmbeddingStore, writer: str, lo: int, hi: int) -> None:
    columns = _rows(lo, hi)
    if writer == "append_rows":
        store.append_rows(**columns)
        return
    for i, vector in enumerate(columns["vectors"]):
        store.add(FunctionEncoding(
            name=columns["names"][i], arch=columns["arches"][i],
            binary_name=columns["binary_names"][i], vector=vector,
            callee_count=columns["callee_counts"][i],
            ast_size=columns["ast_sizes"][i],
        ), image_id=columns["image_ids"][i])
    store.flush()


def _assert_serves(store: EmbeddingStore, n: int) -> None:
    assert len(store) == n
    assert np.array_equal(np.asarray(store.vectors()), _rows(0, n)["vectors"])
    assert [store.metadata_at(row) for row in range(n)] \
        == [_stored(row) for row in range(n)]


class TestEveryStoreFailpoint:
    def test_the_store_declares_its_failpoints(self):
        assert STORE_FAILPOINTS == [
            "store.flush.pre_rename", "store.flush.pre_manifest",
            "store.manifest.pre_rename",
        ]

    @pytest.mark.parametrize("writer", ["flush", "append_rows"])
    @pytest.mark.parametrize("failpoint", STORE_FAILPOINTS)
    def test_a_raise_keeps_the_committed_prefix_and_a_retry_lands_once(
        self, tmp_path, failpoint, writer
    ):
        root = tmp_path / "idx"
        store = EmbeddingStore.create(root, dim=DIM, shard_size=4)
        _write(store, writer, 0, 6)  # committed: two shards
        faults.configure(f"{failpoint}=raise*1")
        with pytest.raises(FaultInjected):
            _write(store, writer, 6, 16)
        faults.clear()
        crashed = EmbeddingStore.open(root)
        assert not crashed.degraded
        _assert_serves(crashed, 6)
        # retry what the raise left undone: flush() keeps the rows no
        # shard holds buffered; a bulk caller resumes at n_flushed
        if writer == "flush":
            store.flush()
        else:
            store.append_rows(**{
                key: values[store.n_flushed - 6:]
                for key, values in _rows(6, 16).items()
            })
        retried = EmbeddingStore.open(root)
        assert not retried.degraded
        _assert_serves(retried, 16)
        assert sorted(p.name for p in root.glob("shard-*")) == [
            f"shard-{i:05d}.shard" for i in range(5)
        ]


_TEXT = st.text(max_size=8) | st.text(min_size=300, max_size=400)


@st.composite
def _tables(draw):
    rows = draw(st.lists(
        st.tuples(_TEXT, _TEXT, _TEXT, _TEXT,
                  st.integers(INT32.min, INT32.max),
                  st.integers(INT32.min, INT32.max)),
        min_size=1, max_size=24,
    ))
    wide = draw(st.booleans())
    if wide:  # 300 distinct binaries and images in one shard
        rows += [
            (f"w{i}", f"bin-{i}", "mips", f"img-{i}", i, i)
            for i in range(300)
        ]
    return {
        "rows": rows,
        "shard_size": 512 if wide else draw(st.integers(1, 8)),
        "bulk": draw(st.booleans()),
        "dtype": draw(st.sampled_from(["float32", "float64"])),
    }


class TestColumnsRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(_tables())
    def test_every_row_reads_back_as_written(self, case):
        rows = case["rows"]
        vectors = np.random.default_rng(len(rows)).normal(
            size=(len(rows), DIM)
        )
        names, binaries, arches, images, counts, sizes = map(list, zip(*rows))
        with tempfile.TemporaryDirectory() as tmp:
            store = EmbeddingStore.create(
                Path(tmp) / "idx", dim=DIM, shard_size=case["shard_size"],
                dtype=case["dtype"],
            )
            if case["bulk"]:
                store.append_rows(
                    vectors, counts, ast_sizes=sizes, names=names,
                    binary_names=binaries, arches=arches, image_ids=images,
                )
            else:
                for row, vector in enumerate(vectors):
                    store.add(FunctionEncoding(
                        name=names[row], arch=arches[row],
                        binary_name=binaries[row], vector=vector,
                        callee_count=counts[row], ast_size=sizes[row],
                    ), image_id=images[row])
                store.flush()
            reopened = EmbeddingStore.open(Path(tmp) / "idx")
            assert not reopened.degraded
            assert np.array_equal(
                np.asarray(reopened.vectors()), vectors.astype(case["dtype"])
            )
            assert np.array_equal(reopened.callee_counts(), counts)
            for row, (name, binary, arch, image, count, size) in enumerate(
                rows
            ):
                meta = reopened.metadata_at(row)
                assert meta == StoredFunction(
                    row=row, name=name, binary_name=binary, arch=arch,
                    callee_count=count, ast_size=size, image_id=image,
                )
                hit = reopened.hit(row, 0.5)
                assert hit.score == 0.5
                for field in dataclasses.fields(StoredFunction):
                    assert getattr(hit, field.name) \
                        == getattr(meta, field.name)

    def test_codes_widen_past_two_bytes(self, tmp_path):
        n = (1 << 16) + 3  # more distinct images than a uint16 can code
        store = EmbeddingStore.create(tmp_path / "idx", dim=2, shard_size=n)
        store.append_rows(
            np.zeros((n, 2)), np.zeros(n),
            binary_names=[f"bin-{row % 300}" for row in range(n)],
            image_ids=[f"img-{row}" for row in range(n)],
        )
        reopened = EmbeddingStore.open(tmp_path / "idx")
        for row in (0, 255, 256, 299, 300, 65535, 65536, n - 1):
            meta = reopened.metadata_at(row)
            assert (meta.binary_name, meta.image_id) \
                == (f"bin-{row % 300}", f"img-{row}")

    @pytest.mark.parametrize("column", ["callee_count", "ast_size"])
    @pytest.mark.parametrize(
        "value", [INT32.max + 1, INT32.min - 1, 1 << 40, 1 << 70]
    )
    def test_a_value_past_int32_is_refused_not_wrapped(
        self, tmp_path, column, value
    ):
        store = EmbeddingStore.create(tmp_path / "idx", dim=DIM)
        fields = {"callee_count": 1, "ast_size": 9, column: value}
        with pytest.raises(StoreError, match="int32"):
            store.add(FunctionEncoding(
                name="f", arch="x86", binary_name="b",
                vector=np.zeros(DIM), **fields,
            ))
        with pytest.raises(StoreError, match="int32"):
            store.append_rows(
                np.zeros((2, DIM)), [1, fields["callee_count"]],
                ast_sizes=[9, fields["ast_size"]],
            )
        assert len(store) == 0
        assert len(EmbeddingStore.open(tmp_path / "idx")) == 0


class TestReaderCost:
    def test_counts_and_metadata_decode_no_string_they_do_not_return(
        self, tmp_path
    ):
        n, n_shards, dim = 65536, 8, 16
        rows = np.arange(n)
        counts = rows % 97
        names = [f"sub_{row:08x}" for row in rows]
        store = EmbeddingStore.create(
            tmp_path / "idx", dim=dim, shard_size=n // n_shards
        )
        store.append_rows(
            np.random.default_rng(0).normal(size=(n, dim)), counts,
            ast_sizes=rows % 1000, names=names,
            binary_names=[f"bin-{row // 64:05d}" for row in rows],
            arches=[("x86", "arm", "mips")[row % 3] for row in rows],
            image_ids=[f"img-{row // 4096:03d}" for row in rows],
        )
        del store
        gc.collect()
        picked = np.linspace(0, n - 1, 100).astype(int).tolist()
        tracemalloc.start()
        try:
            stacked = EmbeddingStore.open(tmp_path / "idx").callee_counts()
            _now, open_peak = tracemalloc.get_traced_memory()
            # a second handle, whose shards are mapped but none of whose
            # metadata has been read yet
            store = EmbeddingStore.open(tmp_path / "idx")
            store.vectors()
            tracemalloc.reset_peak()
            before, _peak = tracemalloc.get_traced_memory()
            found = [store.metadata_at(row) for row in picked]
            _now, meta_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert open_peak <= stacked.nbytes + (1 << 20)
        assert meta_peak - before <= 64 << 10
        assert np.array_equal(stacked, counts)
        assert [meta.name for meta in found] == [names[r] for r in picked]
        assert [meta.callee_count for meta in found] \
            == [int(counts[r]) for r in picked]
