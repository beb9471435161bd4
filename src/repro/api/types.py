"""The engine's request, response and stats declarations.

Plain dataclasses (``repro.obs.metrics.METRICS`` ties
:class:`EngineStats` fields to the registry); no lock and no behaviour
beyond ``to_dict``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.binformat.binary import BinaryFile
from repro.core.model import FunctionEncoding
from repro.index.store import SearchHit

#: Query depth of a :class:`QueryRequest` that names none.
DEFAULT_TOP_K = 10

#: A binary object, its RBIN bytes as received, or an RBIN file's path.
BinarySource = Union[BinaryFile, bytes, str, Path]


@dataclass
class EncodeRequest:
    """Encode every (or one named) function of a binary."""

    binary: Optional[BinarySource] = None
    function: Optional[str] = None


@dataclass
class EncodeResult:
    binary_name: str
    arch: str
    encodings: List[FunctionEncoding]


@dataclass
class IngestRequest:
    """Feed corpora into the engine's embedding index.

    Any combination of: in-memory firmware ``images``, loose ``binaries``
    (:class:`BinaryFile` or ``(binary, image_id)`` pairs), or a generated
    firmware corpus (``corpus_images``/``corpus_seed``, the substitute
    for the paper's vendor image crawl).
    """

    images: Sequence = ()
    binaries: Sequence = ()
    corpus_images: Optional[int] = None
    corpus_seed: int = 0


@dataclass
class QueryRequest:
    """One top-k similarity query.

    Exactly one query source: a ready ``encoding``, a library ``cve_id``,
    or a ``binary`` (object, RBIN bytes or path) plus ``function`` name.
    ``top_k=None`` keeps every above-threshold hit; ``threshold=None``
    disables the cutoff (the full top-k).  A negative ``top_k`` or
    ``threshold`` is a :class:`BadRequestError`.
    """

    encoding: Optional[FunctionEncoding] = None
    cve_id: Optional[str] = None
    binary: Optional[BinarySource] = None
    function: Optional[str] = None
    top_k: Optional[int] = DEFAULT_TOP_K
    threshold: Optional[float] = None
    #: Absolute ``time.monotonic()`` deadline; ``None`` derives one from
    #: ``EngineConfig.request_timeout_ms`` at query entry.
    deadline: Optional[float] = None


@dataclass
class QueryResult:
    query: str
    encoding: FunctionEncoding
    hits: List[SearchHit]
    #: Rows of the corpus snapshot the hits were swept from (rows still
    #: buffered in the store are not part of it).
    n_rows: int


@dataclass
class CompareRequest:
    binary1: Optional[BinarySource] = None
    function1: str = ""
    binary2: Optional[BinarySource] = None
    function2: str = ""


@dataclass
class CompareResult:
    function1: str
    function2: str
    ast_similarity: float  # M, the raw Siamese score
    similarity: float  # F, callee-count calibrated


@dataclass
class EngineStats:
    """A point-in-time snapshot of the engine's counters."""

    model_loaded: bool = False
    model_path: Optional[str] = None
    model_fingerprint: Optional[str] = None
    index_root: Optional[str] = None
    index_rows: int = 0
    index_shards: int = 0
    index_dtype: Optional[str] = None
    index_mmap: bool = False
    index_vector_bytes: int = 0
    index_resident_bytes: int = 0
    ann_backend: Optional[str] = None
    #: Tiered (ivf-pq) index surface, its ``ann_stats()``: whether it
    #: reopened from persisted state, rows (re)quantized by the live
    #: index construction and the coarse-partition knobs it runs with.
    ann_persisted: Optional[bool] = None
    ann_rows_quantized: int = 0
    ann_n_lists: int = 0
    ann_nprobe: int = 0
    n_queries: int = 0
    n_query_batches: int = 0
    n_query_encodes: int = 0
    n_encoded_trees: int = 0
    encode_block_rows: int = 0
    micro_batches: int = 0
    micro_batched_items: int = 0
    micro_batch_max: int = 0
    micro_batch_mean: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Degraded-mode surface: True when the engine is serving with less
    #: than its full fidelity (quarantined shards, ANN fallback, ...).
    degraded: bool = False
    degraded_reasons: List[str] = field(default_factory=list)
    index_quarantined_shards: int = 0
    n_shed: int = 0
    n_timeouts: int = 0
    config: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

