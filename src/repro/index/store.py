"""Persistent, sharded embedding store for function encodings.

The offline half of the paper's offline/online split (Fig. 10(b)/(c)):
every corpus function is encoded *once* and the resulting
:class:`~repro.core.model.FunctionEncoding` vectors -- plus the metadata
needed for calibration and reporting (function name, binary, architecture,
filtered callee count, AST size, owning firmware image) -- are serialised
to disk so later query sessions never re-encode the corpus.

Layout of a store directory::

    <root>/manifest.json           versioned manifest (dim, dtype, shard
                                   table with one sha256 per shard, row
                                   count, persisted-ANN state)
    <root>/shard-00000.shard       rows [0, n0): a 64-byte header, the
                                   raw (n0, dim) vector block, then the
                                   metadata columns (format 3, below)
    <root>/ann-<kind>.npz          optional persisted ANN state (e.g.
                                   ``ann-ivf-pq.npz``: scales, centroids,
                                   int8 codes, list assignments)

A shard file, after its header, holds one section per column, in this
order, each aligned to its item size::

    vectors          (n, dim) in the store dtype
    callee_counts    int32 [n]
    ast_sizes        int32 [n]
    names.offsets    uint32 [n + 1]   name i = names.bytes[offsets[i]:
                                      offsets[i + 1]], UTF-8
    <col>.offsets    uint32 [k + 1]   <col> = arch, binary, image: the
                                      shard's k distinct values, as a
                                      string table like the names
    <col>.codes      uint8/16/32 [n]  each row's value, as an index into
                                      them, in the narrowest width for k
    names.bytes, then each <col>.bytes

Vectors are stored in a configurable ``dtype`` (default float32 -- half
the bytes of the float64 the encoder emits, far below the noise floor of
the Siamese scores).  Every section is a view into one memory map of the
file, so opening a store is O(manifest) in corpus size and resident
memory stays bounded by what queries actually touch.
:meth:`EmbeddingStore.vectors` exposes the whole corpus as a
:class:`ShardedMatrix` -- a zero-copy row-concatenated view over the
per-shard maps that the ANN layer consumes block-by-block; no full
``np.concatenate`` materialisation ever happens.
:meth:`EmbeddingStore.callee_counts` reads only the count column, and a
string is decoded only for a row :meth:`~EmbeddingStore.metadata_at`
asks for.

``flush()`` stacks the rows ``add`` buffered into the columns
``append_rows`` takes, so one loop cuts every shard.  Each shard file is
one :func:`repro.utils.fsio.atomic_write` whose sha256 the manifest
records; a file it records no checksum for counts as corrupt.
``root=None`` gives an ephemeral in-memory store with the same API and
the same shard bytes, held in memory (used by tests and by
single-process pipelines that do not need persistence).
"""

from __future__ import annotations

import json
import struct
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.faults as faults
from repro.core.model import FunctionEncoding
from repro.nn.serialize import load_state, save_state
from repro.utils.fsio import atomic_write, atomic_write_text, file_sha256
from repro.utils.logging import get_logger

_LOG = get_logger("index.store")

MANIFEST_NAME = "manifest.json"
QUARANTINE_DIR = "quarantine"
FORMAT_VERSION = 3
DEFAULT_SHARD_SIZE = 1024
DEFAULT_DTYPE = "float32"
_DTYPES = ("float32", "float64")
_INT32 = np.iinfo(np.int32)


class StoreError(Exception):
    """Raised on malformed stores or incompatible writes."""


def _check_dtype(dtype) -> np.dtype:
    name = np.dtype(dtype).name
    if name not in _DTYPES:
        raise StoreError(
            f"unsupported vector dtype {name!r} "
            f"(choose from {', '.join(_DTYPES)})"
        )
    return np.dtype(name)


class ShardedMatrix:
    """A read-only ``(n, dim)`` view over row-blocks that never copies.

    The blocks are the store's per-shard vector arrays (memory-maps for
    durable stores); the view concatenates them logically.  Consumers
    that can stream -- the ANN scorers -- iterate :meth:`iter_blocks`;
    consumers that need a handful of rows use :meth:`take` / indexing,
    which gathers only those rows.  ``np.asarray(view)`` still
    materialises the full matrix for compatibility, but nothing on the
    query path does that.
    """

    def __init__(self, dim: int, dtype, blocks: Optional[List] = None):
        self.dim = int(dim)
        self.dtype = np.dtype(dtype)
        self._blocks: List[np.ndarray] = []
        self._offsets: List[int] = [0]
        for block in blocks or []:
            self.append_block(block)

    def append_block(self, block: np.ndarray) -> None:
        """Extend the view in place (no reload/copy of prior blocks)."""
        if block.ndim != 2 or block.shape[1] != self.dim:
            raise StoreError(
                f"block shape {block.shape} does not fit view dim {self.dim}"
            )
        self._blocks.append(block)
        self._offsets.append(self._offsets[-1] + block.shape[0])

    def snapshot(self) -> "ShardedMatrix":
        """A fixed-length copy of the view sharing the same blocks.

        The store extends its cached view in place on flush; consumers
        that must stay self-consistent across store growth (an ANN index
        whose codes/callee counts were taken at construction) hold
        a snapshot instead.  Blocks are immutable once flushed, so
        sharing them is free.
        """
        return ShardedMatrix(self.dim, self.dtype, self._blocks)

    def slice_rows(self, start: int, stop: int) -> "ShardedMatrix":
        """A zero-copy sub-view over rows ``[start, stop)``.

        Blocks fully inside the range are shared outright; boundary
        blocks contribute an ndarray/memmap slice (still no copy).  The
        serving pool hands each worker one of these so a disjoint shard
        range can be swept with the ordinary block-streaming scorers.
        """
        n = len(self)
        start = max(0, min(int(start), n))
        stop = max(start, min(int(stop), n))
        view = ShardedMatrix(self.dim, self.dtype)
        for first, block in self.iter_blocks():
            last = first + block.shape[0]
            if last <= start:
                continue
            if first >= stop:
                break
            lo = max(start, first) - first
            hi = min(stop, last) - first
            view.append_block(
                block if (lo == 0 and hi == block.shape[0])
                else block[lo:hi]
            )
        return view

    # -- shape protocol ----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._offsets[-1], self.dim)

    @property
    def ndim(self) -> int:
        return 2

    def __len__(self) -> int:
        return self._offsets[-1]

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    # -- reads -------------------------------------------------------------

    def iter_blocks(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(first_row, block)`` pairs in row order."""
        for i, block in enumerate(self._blocks):
            yield self._offsets[i], block

    def row(self, index: int) -> np.ndarray:
        if not 0 <= index < len(self):
            raise IndexError(f"row {index} out of range ({len(self)} rows)")
        block_i = bisect_right(self._offsets, index) - 1
        return self._blocks[block_i][index - self._offsets[block_i]]

    def take(self, rows) -> np.ndarray:
        """Gather ``rows`` (any order, duplicates allowed) into one array.

        Negative indices wrap like ndarray indexing; anything still out
        of range raises rather than returning uninitialised memory.
        """
        requested = np.asarray(rows, dtype=np.int64)
        n = len(self)
        rows = np.where(requested < 0, requested + n, requested)
        bad = (rows < 0) | (rows >= n)
        if bad.any():
            raise IndexError(
                f"row {int(requested[np.argmax(bad)])} out of range "
                f"({n} rows)"
            )
        out = np.empty((rows.size, self.dim), dtype=self.dtype)
        block_of = np.searchsorted(self._offsets, rows, side="right") - 1
        for i in range(len(self._blocks)):
            mask = block_of == i
            if mask.any():
                out[mask] = self._blocks[i][rows[mask] - self._offsets[i]]
        return out

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self.row(int(key))
        if isinstance(key, slice):
            return self.take(np.arange(*key.indices(len(self))))
        return self.take(key)

    def __array__(self, dtype=None, copy=None):
        out = (
            np.empty((0, self.dim), dtype=self.dtype)
            if not self._blocks
            else np.concatenate([np.asarray(b) for b in self._blocks])
        )
        return out if dtype is None else out.astype(dtype)

    # -- accounting --------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Logical size of the full matrix."""
        return len(self) * self.dim * self.dtype.itemsize

    @property
    def resident_nbytes(self) -> int:
        """Heap-allocated bytes: memory-mapped blocks count as zero."""
        return sum(
            0 if isinstance(block, np.memmap) else block.nbytes
            for block in self._blocks
        )

    @property
    def mmapped(self) -> bool:
        """Is any block a memory map (i.e. disk-backed, demand-paged)?"""
        return any(isinstance(block, np.memmap) for block in self._blocks)


@dataclass(frozen=True)
class StoredFunction:
    """Metadata for one row of the store (everything but the vector)."""

    row: int
    name: str
    binary_name: str
    arch: str
    callee_count: int
    ast_size: int
    image_id: str = ""

    def encoding(self, vector: np.ndarray) -> FunctionEncoding:
        """Rebuild the original :class:`FunctionEncoding` for this row."""
        return FunctionEncoding(
            name=self.name,
            arch=self.arch,
            binary_name=self.binary_name,
            vector=vector,
            callee_count=self.callee_count,
            ast_size=self.ast_size,
        )


@dataclass(frozen=True)
class SearchHit:
    """One query result: a row's score plus its stored metadata."""

    row: int
    score: float
    name: str
    binary_name: str
    arch: str
    callee_count: int
    ast_size: int
    image_id: str = ""


#: The dictionary-coded string columns, and the string tables in file
#: order: the names (one per row), then each coded column's dictionary.
_CODED = ("arch", "binary", "image")
_TABLES = ("names",) + _CODED
_NAMES, _ARCH, _BINARY, _IMAGE = range(len(_TABLES))
_MAGIC = b"RSHARD03"
#: magic, rows, dim, vector itemsize, each coded column's code width and
#: dictionary size, each string table's byte length; the padding starts
#: the vector block 64 bytes in.
_HEADER = struct.Struct("<8sIIB3B3I4I16x")
_OFFSET_PAIR = struct.Struct("<2I")
_INT32_ITEM = struct.Struct("<i")
#: one dictionary code, by its width in bytes
_CODE_ITEMS = {1: struct.Struct("<B"), 2: struct.Struct("<H"),
               4: struct.Struct("<I")}


def _int32_column(label: str, values, n: int) -> np.ndarray:
    """``values`` as ``n`` int64s, each of which fits the stored int32."""
    try:
        column = np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise StoreError(f"{label} do not fit int32") from None
    if column.shape != (n,):
        raise StoreError(
            f"{label} shape {column.shape} does not match {n} rows"
        )
    if n and (column.min() < _INT32.min or column.max() > _INT32.max):
        raise StoreError(f"{label} do not fit int32")
    return column


def _layout(n: int, dim: int, dtype: np.dtype, widths, sizes, lengths):
    """Every section of a shard file: ``({name: (offset, dtype, items)},
    file size)``, each section aligned to its item size."""
    sections = [
        ("vectors", dtype.newbyteorder("<"), n * dim),
        ("callee_counts", "<i4", n),
        ("ast_sizes", "<i4", n),
        ("names.offsets", "<u4", n + 1),
        *((f"{col}.offsets", "<u4", k + 1) for col, k in zip(_CODED, sizes)),
        *((f"{col}.codes", f"<u{w}", n) for col, w in zip(_CODED, widths)),
        *((f"{t}.bytes", "u1", size) for t, size in zip(_TABLES, lengths)),
    ]
    layout, offset = {}, _HEADER.size
    for name, kind, items in sections:
        kind = np.dtype(kind)
        offset += -offset % kind.itemsize
        layout[name] = (offset, kind, items)
        offset += kind.itemsize * items
    return layout, offset


def _string_table(values) -> Tuple[np.ndarray, bytes]:
    """``values`` as an offsets + UTF-8 bytes table."""
    encoded = [value.encode("utf-8", "surrogatepass") for value in values]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(data) for data in encoded], out=offsets[1:])
    if offsets[-1] > np.iinfo(np.uint32).max:
        raise StoreError("a shard's strings exceed 4 GiB; lower shard_size")
    return offsets, b"".join(encoded)


def _dictionary(values) -> Tuple[np.ndarray, List[str]]:
    """Codes into the distinct ``values``, numbered in first-seen order."""
    index: Dict[str, int] = {}
    codes = [index.setdefault(value, len(index)) for value in values]
    return np.array(codes, dtype=np.int64), list(index)


def _encode_shard(dtype: np.dtype, vectors, counts, sizes, names,
                  binary_names, arches, image_ids) -> List:
    """One shard file's contents, as the buffers to write in order."""
    n, dim = vectors.shape
    coded = [_dictionary(c) for c in (arches, binary_names, image_ids)]
    widths = [
        next(w for w in sorted(_CODE_ITEMS) if len(distinct) <= 1 << 8 * w)
        for _codes, distinct in coded
    ]
    tables = [_string_table(names)] + [
        _string_table(distinct) for _codes, distinct in coded
    ]
    columns = {"vectors": vectors, "callee_counts": counts,
               "ast_sizes": sizes}
    for col, (codes, _distinct) in zip(_CODED, coded):
        columns[f"{col}.codes"] = codes
    for table, (offsets, data) in zip(_TABLES, tables):
        columns[f"{table}.offsets"] = offsets
        columns[f"{table}.bytes"] = np.frombuffer(data, dtype=np.uint8)
    dict_sizes = [len(distinct) for _codes, distinct in coded]
    lengths = [len(data) for _offsets, data in tables]
    layout, _end = _layout(n, dim, dtype, widths, dict_sizes, lengths)
    parts = [_HEADER.pack(_MAGIC, n, dim, dtype.itemsize, *widths,
                          *dict_sizes, *lengths)]
    offset = _HEADER.size
    for name, (start, kind, items) in layout.items():
        if start > offset:
            parts.append(bytes(start - offset))
        parts.append(np.ascontiguousarray(columns[name], dtype=kind).data)
        offset = start + kind.itemsize * items
    return parts


class _ShardColumns:
    """The columns of one shard, read in place from its bytes.

    ``raw`` is a memory map of the shard file (for an in-memory store,
    the bytes :func:`_encode_shard` produced) and ``header`` its first
    bytes, read without touching the map: a shard that is flushed but
    never queried costs no resident page.  The vector block and the
    count column are zero-copy views, and :meth:`fields` unpacks just
    its own row's fields and strings, straight from the buffer; a
    dictionary entry is decoded once, the first time a row reads it.
    """

    def __init__(self, header: bytes, raw: np.ndarray, name: str,
                 n_rows: int, dim: int, dtype: np.dtype):
        fields = (
            _HEADER.unpack(header) if len(header) == _HEADER.size
            else (None,) * 14
        )
        widths, sizes, lengths = fields[4:7], fields[7:10], fields[10:]
        if fields[:4] != (_MAGIC, n_rows, dim, dtype.itemsize) or not (
            set(widths) <= set(_CODE_ITEMS)
        ):
            raise StoreError(
                f"shard {name} is not a format-{FORMAT_VERSION} shard of "
                f"{n_rows} {dtype.name} rows of dim {dim}"
            )
        layout, end = _layout(n_rows, dim, dtype, widths, sizes, lengths)
        if raw.size != end:
            raise StoreError(
                f"shard {name} holds {raw.size} bytes, its header says {end}"
            )

        def view(section: str) -> np.ndarray:
            start, kind, items = layout[section]
            return raw[start:start + kind.itemsize * items].view(kind)

        self.vectors = view("vectors").reshape(n_rows, dim)
        self.callee_counts = view("callee_counts")
        # one row's fields come out by struct, not ndarray indexing:
        # per-hit cost is a few unpacks, not a few memmap slices
        self._raw = memoryview(raw)
        self._ints = (
            (layout["callee_counts"][0], _INT32_ITEM),
            (layout["ast_sizes"][0], _INT32_ITEM),
            *((layout[f"{col}.codes"][0], _CODE_ITEMS[w])
              for col, w in zip(_CODED, widths)),
        )
        self._tables = tuple(
            (layout[f"{table}.offsets"][0], layout[f"{table}.bytes"][0])
            for table in _TABLES
        )
        #: the dictionary entries rows have asked for, by coded column
        self._decoded: Tuple[Dict[int, str], ...] = tuple(
            {} for _col in _CODED
        )

    def _string(self, table: int, index: int) -> str:
        offsets, data = self._tables[table]
        lo, hi = _OFFSET_PAIR.unpack_from(self._raw, offsets + 4 * index)
        return str(self._raw[data + lo:data + hi], "utf-8", "surrogatepass")

    def _entry(self, table: int, code: int) -> str:
        """Dictionary entry ``code`` of a coded column, decoded once."""
        decoded = self._decoded[table - _ARCH]
        value = decoded.get(code)
        if value is None:
            value = decoded[code] = self._string(table, code)
        return value

    def fields(self, local: int) -> tuple:
        """Row ``local``'s fields in :class:`StoredFunction` order (after
        ``row``): name, binary name, arch, callee count, AST size, image."""
        raw = self._raw
        count, size, arch, binary, image = [
            item.unpack_from(raw, start + item.size * local)[0]
            for start, item in self._ints
        ]
        return (
            self._string(_NAMES, local), self._entry(_BINARY, binary),
            self._entry(_ARCH, arch), count, size, self._entry(_IMAGE, image),
        )


@dataclass
class _ShardInfo:
    name: str
    n_rows: int
    #: sha256 hexdigest of the shard file (``None`` only in memory; a
    #: durable shard without one fails verification).
    sha256: Optional[str] = None


@dataclass
class _PendingRow:
    encoding: FunctionEncoding
    image_id: str = ""


class EmbeddingStore:
    """Append-only sharded store of function encodings.

    Use :meth:`create` for a new store, :meth:`open` for an existing one,
    and :meth:`in_memory` for an ephemeral store.  Rows are buffered by
    :meth:`add` and become durable (and visible to readers) on
    :meth:`flush`, which cuts the buffer into fixed-size shards, appends
    them to the cached :class:`ShardedMatrix` view incrementally (no
    re-stack of earlier shards), and rewrites the manifest last -- a
    crash mid-flush leaves the previous manifest intact and at worst an
    orphaned shard file.
    """

    def __init__(
        self,
        root: Optional[Path],
        dim: int,
        shard_size: int = DEFAULT_SHARD_SIZE,
        shards: Optional[List[_ShardInfo]] = None,
        meta: Optional[Dict] = None,
        dtype=DEFAULT_DTYPE,
        ann: Optional[Dict] = None,
        quarantined: Optional[List[str]] = None,
    ):
        if shard_size <= 0:
            raise StoreError(f"shard_size must be positive, got {shard_size}")
        self.root = Path(root) if root is not None else None
        self.dim = int(dim)
        self.shard_size = int(shard_size)
        self.dtype = _check_dtype(dtype)
        self.meta = dict(meta or {})
        self.ann = dict(ann or {})
        #: Shard names moved aside by :meth:`_verify_and_recover` (this
        #: open or a previous one -- the list persists in the manifest).
        self.quarantined: List[str] = list(quarantined or [])
        self._shards: List[_ShardInfo] = list(shards or [])
        #: Shards the on-disk manifest lists; a flush whose manifest write
        #: failed leaves this behind ``len(self._shards)`` until a retry.
        self._committed = len(self._shards)
        #: Opened shards (views over their bytes), by index.
        self._meta_cache: Dict[int, _ShardColumns] = {}
        self._pending: List[_PendingRow] = []
        self._offsets: List[int] = []
        # in-memory stores have no disk shards to rebuild a view from, so
        # their view exists up front and flush() feeds it directly
        self._vectors: Optional[ShardedMatrix] = (
            ShardedMatrix(self.dim, self.dtype) if root is None else None
        )
        self._count_blocks: List[np.ndarray] = []
        self._stacked_counts: Optional[np.ndarray] = None
        self._rebuild_offsets()

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        root,
        dim: int,
        shard_size: int = DEFAULT_SHARD_SIZE,
        meta: Optional[Dict] = None,
        dtype=DEFAULT_DTYPE,
    ) -> "EmbeddingStore":
        """Create a new store at ``root`` (which must be empty or absent)."""
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            raise StoreError(f"store already exists at {root}")
        root.mkdir(parents=True, exist_ok=True)
        store = cls(
            root, dim=dim, shard_size=shard_size, meta=meta, dtype=dtype
        )
        store._write_manifest()
        return store

    @classmethod
    def in_memory(
        cls,
        dim: int,
        shard_size: int = DEFAULT_SHARD_SIZE,
        dtype=DEFAULT_DTYPE,
    ) -> "EmbeddingStore":
        """An ephemeral store: same API, nothing touches disk."""
        return cls(None, dim=dim, shard_size=shard_size, dtype=dtype)

    @classmethod
    def open(cls, root, verify: bool = True) -> "EmbeddingStore":
        """Open an existing store for reading or appending.

        With ``verify`` (the default) every shard file is checked for
        existence and content integrity against the manifest's
        checksums.  A torn or corrupt shard does not fail the open:
        :meth:`_verify_and_recover` quarantines it (and every later
        shard, since rows are positional) and the store serves the last
        consistent prefix with :attr:`degraded` set.
        """
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"no manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        version = manifest.get("format_version")
        if version != FORMAT_VERSION or "dtype" not in manifest:
            raise StoreError(
                f"store at {root} has format_version {version!r}"
                f"{'' if 'dtype' in manifest else ' and no dtype'}; this "
                f"build reads only format_version {FORMAT_VERSION}: "
                f"rebuild it with `repro-cli index build` (a synthetic "
                f"corpus with `repro-cli corpus synth`)"
            )
        shards = [
            _ShardInfo(
                name=entry["name"],
                n_rows=int(entry["n_rows"]),
                sha256=entry.get("sha256"),
            )
            for entry in manifest["shards"]
        ]
        store = cls(
            root,
            dim=int(manifest["dim"]),
            shard_size=int(manifest["shard_size"]),
            shards=shards,
            meta=manifest.get("meta", {}),
            dtype=manifest["dtype"],
            ann=manifest.get("ann"),
            quarantined=manifest.get("quarantined"),
        )
        if verify:
            store._verify_and_recover()
        return store

    # -- integrity ---------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True when recovery dropped shards: the store serves a
        consistent but incomplete prefix of the corpus."""
        return bool(self.quarantined)

    def _verify_and_recover(self) -> None:
        """Detect torn/corrupt shards and recover to a consistent prefix.

        Walks the manifest's shard table in row order checking that every
        file exists and that its content matches the recorded checksum
        (a file the manifest records none for cannot be verified and
        counts as corrupt).  Rows are positional, so the first bad shard
        poisons every global row index after it: that shard *and all
        later ones* are moved to ``<root>/quarantine/`` for post-mortem,
        the in-memory tables are truncated to the surviving prefix, and
        the manifest is rewritten so the next open is clean.  The store
        keeps serving -- :attr:`degraded` (surfaced through engine stats
        and ``/healthz``) is the signal that rows are missing.
        """
        if self.root is None:
            return
        first_bad: Optional[int] = None
        reason = ""
        for i, info in enumerate(self._shards):
            path = self._shard_path(info)
            if not path.exists():
                first_bad, reason = i, f"missing file {path.name}"
                break
            # no recorded digest equals none: unverifiable is corrupt
            if file_sha256(path) != info.sha256:
                first_bad, reason = (
                    i, f"checksum missing or mismatched in {path.name}"
                )
                break
        if first_bad is None:
            return
        dropped = self._shards[first_bad:]
        self._shards = self._shards[:first_bad]
        self._rebuild_offsets()
        self._meta_cache = {
            k: v for k, v in self._meta_cache.items() if k < first_bad
        }
        self._vectors = None
        self._count_blocks = []
        self._stacked_counts = None
        quarantine = self.root / QUARANTINE_DIR
        for info in dropped:
            self.quarantined.append(info.name)
            path = self._shard_path(info)
            if not path.exists():
                continue
            try:
                quarantine.mkdir(parents=True, exist_ok=True)
                path.replace(quarantine / path.name)
            except OSError:  # unwritable dir: serving still degrades
                pass
        if self.ann and int(self.ann.get("n_rows", 0)) > self.n_flushed:
            self.ann = {}  # the state covers rows that no longer exist
        _LOG.warning(
            "store at %s is degraded: %s; quarantined %d shard(s), "
            "serving %d rows",
            self.root, reason, len(dropped), self.n_flushed,
        )
        try:
            self._write_manifest()
        except OSError as exc:
            _LOG.warning(
                "cannot persist recovered manifest at %s: %s", self.root, exc
            )

    # -- writes ------------------------------------------------------------

    def add(self, encoding: FunctionEncoding, image_id: str = "") -> int:
        """Buffer one encoding; returns its (future) global row index."""
        vector = np.asarray(encoding.vector)
        if vector.shape != (self.dim,):
            raise StoreError(
                f"vector shape {vector.shape} does not match store dim "
                f"({self.dim},)"
            )
        for label, value in (
            ("callee_count", encoding.callee_count),
            ("ast_size", encoding.ast_size),
        ):
            if not _INT32.min <= value <= _INT32.max:
                raise StoreError(f"{label} {value} does not fit int32")
        self._pending.append(_PendingRow(encoding=encoding, image_id=image_id))
        return len(self) - 1

    def flush(self) -> int:
        """Persist buffered rows as new shards; returns rows written.

        The buffer goes, as columns, through :meth:`append_rows`' loop.
        The cached :meth:`vectors` / :meth:`callee_counts` views are
        extended with just the new shards -- earlier shards are never
        reloaded or re-stacked, so a flush costs O(new rows), not
        O(corpus).  If a write raises, the rows no shard holds yet stay
        buffered (in order), so calling ``flush()`` again completes it
        without duplicating a row.
        """
        rows, self._pending = self._pending, []
        encodings = [row.encoding for row in rows]
        before = self.n_flushed
        try:
            return self._append_columns(
                [e.vector for e in encodings],
                np.array([e.callee_count for e in encodings], dtype=np.int64),
                np.array([e.ast_size for e in encodings], dtype=np.int64),
                [e.name for e in encodings],
                [e.binary_name for e in encodings],
                [e.arch for e in encodings],
                [row.image_id for row in rows],
            )
        finally:
            self._pending = rows[self.n_flushed - before:]

    def append_rows(
        self,
        vectors: np.ndarray,
        callee_counts: np.ndarray,
        ast_sizes: Optional[np.ndarray] = None,
        names: Optional[List[str]] = None,
        binary_names: Optional[List[str]] = None,
        arches: Optional[List[str]] = None,
        image_ids: Optional[List[str]] = None,
        name_prefix: str = "fn",
    ) -> int:
        """Bulk-append pre-built rows, bypassing the per-row buffer.

        The corpus-synthesis path: a ``(n, dim)`` matrix plus metadata
        columns is cut straight into durable shards, with no per-row
        :class:`FunctionEncoding` objects in between.  Any metadata
        column left ``None`` gets a cheap default (names are
        ``{name_prefix}_{row:08d}``).  Returns the rows written.
        """
        if self._pending:
            raise StoreError(
                "flush buffered rows before a bulk append_rows"
            )
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise StoreError(
                f"vector matrix shape {vectors.shape} does not match "
                f"store dim {self.dim}"
            )
        n = vectors.shape[0]
        counts = _int32_column("callee_counts", callee_counts, n)
        sizes = _int32_column(
            "ast_sizes", np.zeros(n) if ast_sizes is None else ast_sizes, n
        )
        base_row = len(self)
        if names is None:
            names = [
                f"{name_prefix}_{base_row + i:08d}" for i in range(n)
            ]
        return self._append_columns(
            vectors, counts, sizes, names, binary_names or [""] * n,
            arches or [""] * n, image_ids or [""] * n,
        )

    def _append_columns(
        self, vectors, counts, sizes, names, binary_names, arches, image_ids
    ) -> int:
        """Cut equal-length columns into shards: shards first, manifest
        last (see the class docstring for what a crash in between leaves)."""
        n = len(names)
        for start in range(0, n, self.shard_size):
            stop = min(n, start + self.shard_size)
            parts = _encode_shard(
                self.dtype,
                np.ascontiguousarray(vectors[start:stop], dtype=self.dtype),
                counts[start:stop], sizes[start:stop], names[start:stop],
                binary_names[start:stop], arches[start:stop],
                image_ids[start:stop],
            )
            index = len(self._shards)
            info = _ShardInfo(name=f"shard-{index:05d}", n_rows=stop - start)
            if self.root is None:
                raw = np.frombuffer(b"".join(parts), dtype=np.uint8)
            else:
                # crash window: the shard's bytes durable, unpublished,
                # and the manifest still describes the previous generation
                path = self._shard_path(info)
                info.sha256 = atomic_write(
                    path, lambda handle: handle.writelines(parts),
                    failpoint="store.flush.pre_rename",
                )
                raw = np.memmap(path, dtype=np.uint8, mode="r")
            shard = _ShardColumns(
                parts[0], raw, info.name, info.n_rows, self.dim, self.dtype
            )
            self._shards.append(info)
            self._meta_cache[index] = shard
            self._append_to_views(shard.vectors, shard.callee_counts)
            self._offsets.append(self._offsets[-1] + info.n_rows)
        if self.root is not None and self._committed != len(self._shards):
            # crash window: new shards fully visible on disk but the
            # manifest (rewritten atomically below) still lists only
            # the previous generation -- reopen serves that prefix
            faults.inject("store.flush.pre_manifest")
            self._write_manifest()
        return n

    def _append_to_views(
        self, vectors: np.ndarray, counts: np.ndarray
    ) -> None:
        if self._vectors is not None:
            self._vectors.append_block(vectors)
        self._count_blocks.append(counts)
        self._stacked_counts = None  # re-concat lazily from blocks

    def _shard_path(self, info: _ShardInfo) -> Path:
        return self.root / f"{info.name}.shard"

    def _write_manifest(self) -> None:
        manifest = {
            "format_version": FORMAT_VERSION,
            "dim": self.dim,
            "dtype": self.dtype.name,
            "shard_size": self.shard_size,
            "n_rows": self.n_flushed,
            "shards": [
                dict(name=info.name, n_rows=info.n_rows, sha256=info.sha256)
                for info in self._shards
            ],
            "meta": self.meta,
        }
        if self.ann:
            manifest["ann"] = self.ann
        if self.quarantined:
            manifest["quarantined"] = self.quarantined
        # Rewritten whole on every flush, so compact: ``indent`` would
        # force json's pure-Python encoder on a file that grows by a
        # shard per flush.  Readers take either form.
        atomic_write_text(
            self.root / MANIFEST_NAME,
            json.dumps(manifest, separators=(",", ":"), sort_keys=True),
            failpoint="store.manifest.pre_rename",
        )
        self._committed = len(self._shards)

    # -- persisted ANN state ----------------------------------------------

    def write_ann_state(
        self, params: Dict, arrays: Dict[str, np.ndarray]
    ) -> None:
        """Persist ANN state (quantizer arrays + parameters) alongside
        the shards and record its parameters (and checksum) in the
        manifest."""
        if self.root is None:
            raise StoreError("in-memory stores cannot persist ANN state")
        # one artifact per backend kind; the manifest's ``file`` field
        # names it
        file_name = f"ann-{params['kind']}.npz"
        digest = save_state(
            self.root / file_name, arrays, meta=params,
            failpoint="ann.persist.pre_rename",
        )
        self.ann = dict(params, file=file_name, sha256=digest)
        self._write_manifest()

    def read_ann_state(
        self,
    ) -> Optional[Tuple[Dict, Dict[str, np.ndarray]]]:
        """Load persisted ANN state, or ``None`` when absent/corrupt.

        ``None`` is always recoverable for the caller -- the ANN layer
        rebuilds from the (verified) vectors -- so any integrity doubt
        here resolves to a rebuild, never a crash or silent bad results.
        """
        if self.root is None or "file" not in self.ann:
            return None
        path = self.root / self.ann["file"]
        if not path.exists():
            return None
        if file_sha256(path) != self.ann.get("sha256"):
            _LOG.warning(
                "ignoring ANN state at %s: checksum missing or mismatched "
                "(index will rebuild)", path,
            )
            return None
        try:
            arrays, params = load_state(path)
        except Exception as exc:  # a stale/corrupt file just means rebuild
            _LOG.warning("ignoring unreadable ANN state at %s: %s", path, exc)
            return None
        return params, arrays

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return (self._offsets[-1] if self._offsets else 0) + len(self._pending)

    @property
    def n_flushed(self) -> int:
        return self._offsets[-1] if self._offsets else 0

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_offsets(self) -> List[int]:
        """Cumulative flushed-row offsets: ``[0, n0, n0+n1, ..., n]``.

        The serving coordinator uses these to cut the corpus into
        disjoint shard-aligned worker ranges, so no shard's memory map
        is paged by two sweep workers.
        """
        return list(self._offsets) if self._offsets else [0]

    def _rebuild_offsets(self) -> None:
        self._offsets = [0]
        for info in self._shards:
            self._offsets.append(self._offsets[-1] + info.n_rows)

    def _shard(self, index: int) -> _ShardColumns:
        """One shard's columns, memory-mapped on first use."""
        shard = self._meta_cache.get(index)
        if shard is None:
            if self.root is None:
                raise StoreError(
                    f"shard {index} missing from in-memory store"
                )
            info = self._shards[index]
            path = self._shard_path(info)
            with open(path, "rb") as handle:
                header = handle.read(_HEADER.size)
            shard = self._meta_cache[index] = _ShardColumns(
                header, np.memmap(path, dtype=np.uint8, mode="r"),
                info.name, info.n_rows, self.dim, self.dtype,
            )
        return shard

    def _locate(self, row: int) -> tuple:
        if not 0 <= row < self.n_flushed:
            raise IndexError(
                f"row {row} out of range ({self.n_flushed} flushed rows)"
            )
        shard_index = bisect_right(self._offsets, row) - 1
        return shard_index, row - self._offsets[shard_index]

    def _fields_at(self, row: int) -> tuple:
        shard_index, local = self._locate(row)
        return self._shard(shard_index).fields(local)

    def metadata_at(self, row: int) -> StoredFunction:
        """Metadata for one flushed row."""
        return StoredFunction(row, *self._fields_at(row))

    def hit(self, row: int, score: float) -> SearchHit:
        """``row``, scored ``score`` by a query, as a search result."""
        return SearchHit(row, score, *self._fields_at(row))

    def vectors(self) -> ShardedMatrix:
        """All flushed vectors as one zero-copy ``(n, dim)`` view.

        Durable shards enter the view as memory maps; opening the
        view therefore touches no vector data, and a query pages in only
        the shards it reads.  The view is cached and *extended* by
        :meth:`flush` -- it is never rebuilt from scratch.
        """
        if self._vectors is None:
            view = ShardedMatrix(self.dim, self.dtype)
            for i in range(len(self._shards)):
                view.append_block(self._shard(i).vectors)
            self._vectors = view
        return self._vectors

    def callee_counts(self) -> np.ndarray:
        """All flushed callee counts as one length-``n`` int64 array.

        Stacked lazily from the shards' memory-mapped int32 count
        columns, the only section of a shard this reads; a flush appends
        the new blocks instead of reopening every shard.
        """
        if len(self._count_blocks) != len(self._shards):
            self._count_blocks = [
                self._shard(i).callee_counts
                for i in range(len(self._shards))
            ]
            self._stacked_counts = None
        if self._stacked_counts is None:
            self._stacked_counts = (
                np.concatenate(self._count_blocks, dtype=np.int64)
                if self._count_blocks
                else np.zeros(0, dtype=np.int64)
            )
        return self._stacked_counts

    # -- accounting --------------------------------------------------------

    def memory_footprint(self) -> Dict:
        """Byte accounting for monitoring: what is resident vs. mapped.

        ``resident_bytes`` counts heap-allocated vector blocks (memory
        maps count as zero -- the kernel pages them in and out on
        demand) plus the stacked callee-count array; ``vector_bytes`` is
        the logical size of the full matrix in the store dtype.
        """
        view = self._vectors
        counts = self._stacked_counts
        resident = (view.resident_nbytes if view is not None else 0) + (
            counts.nbytes if counts is not None else 0
        )
        return {
            "n_rows": self.n_flushed,
            "dtype": self.dtype.name,
            "mmap": bool(view.mmapped) if view is not None else False,
            "vector_bytes": self.n_flushed * self.dim * self.dtype.itemsize,
            "resident_bytes": int(resident),
        }
