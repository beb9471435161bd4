"""The unified Asteria facade: one object, the whole paper workflow.

:class:`AsteriaEngine` owns the model, the artifact cache, the embedding
index and the staged corpus pipeline behind one
:class:`~repro.api.config.EngineConfig`, and exposes the full lifecycle
as a small set of typed request/response dataclasses:

* :meth:`AsteriaEngine.encode`  -- binary -> function encodings (cached);
* :meth:`AsteriaEngine.ingest`  -- firmware/binaries -> embedding index
  in one staged-pipeline run, returning that run's ``PipelineStats``;
* :meth:`AsteriaEngine.query` / :meth:`query_batch` -- top-k similar
  functions, query-side encodes coalesced through the serving
  micro-batcher (:mod:`repro.api.batching`); a query batch sweeps the
  corpus once for all its queries (broadcasted Siamese GEMM blocks);
* :meth:`AsteriaEngine.compare` -- pairwise M / calibrated F scores;
* :meth:`AsteriaEngine.stats`   -- counters for monitoring and tests.

:func:`train_model` fits a fresh model; serve it with
``AsteriaEngine(model=result.model)``.  An engine's model is fixed for
its lifetime, and everything it encodes goes through one columns
encoder (:meth:`Asteria.encode_columns`).

Every consumer -- the CLI, the HTTP server
(:mod:`repro.api.server`), ``VulnerabilitySearch``, benchmarks and
examples -- constructs its model/cache/index/pipeline stack through
this class; nothing else in the repo assembles those pieces by hand.
The engine owns the one ANN index over its store (rebuilt when a flush
grows the store, falling back to the exact sweep when the configured
backend cannot be built), and every query -- served, CLI or the
Table IV search -- is answered from it, with hits read from the store.
The engine is thread-safe: concurrent :meth:`query` calls are the
serving hot path and ride the micro-batcher.  Every query sweeps the
index in process; there is one index layout, the flat store at
``index_root``.  The engine lock guards only lazy construction and the
index: an ingest runs its pipeline unlocked (the pipeline holds its own
artifact-cache lock) and takes the engine lock to append and flush; a
query takes it only to pin the index it sweeps, then sweeps unlocked;
encodes read only the immutable model.  So
:meth:`stats` (and ``/healthz``) never waits on an encode, a sweep or a
corpus being decompiled.  Code may take the pipeline lock while holding
the engine lock, never the reverse.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import os
import threading
import time
from collections import OrderedDict

import numpy as np
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import repro.faults as faults
from repro.api.batching import MicroBatcher
from repro.api.config import EngineConfig
from repro.api.errors import (
    BadRequestError,
    DeadlineExceededError,
    IndexStoreError,
    InputNotFoundError,
    ModelNotFoundError,
)
from repro.binformat.binary import BinaryFile
from repro.core.calibration import filtered_callee_count
from repro.core.model import Asteria, AsteriaConfig, FunctionEncoding
from repro.core.preprocess import lcrs_columns
from repro.core.training import TrainConfig, Trainer, TrainHistory
from repro.index.ann import AnnIndex, backend_is_stateful, make_index
from repro.index.quant import IvfPqIndex
from repro.index.store import (
    MANIFEST_NAME,
    EmbeddingStore,
    SearchHit,
    StoreError,
)
from repro.nn.treebatch import TreeColumns
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, trace
from repro.pipeline import (
    ArtifactCache,
    CorpusPipeline,
    PipelineStats,
    binary_digest,
)
from repro.pipeline.stages import ExtractedBinary
from repro.utils.logging import get_logger

_LOG = get_logger("api.engine")


class _Default(enum.Enum):
    USE_DEFAULT = "the engine's configured default"


#: Sentinel for "use the engine's configured default" on optional knobs
#: where ``None`` already means "unlimited": an object of its own, so no
#: number a caller passes can be mistaken for it.
USE_DEFAULT = _Default.USE_DEFAULT

#: Most-recently-queried binaries whose extracted columns stay memoized
#: in memory; a long-running server over many distinct query binaries
#: evicts the oldest instead of growing without bound (the pipeline's
#: artifact cache still holds evicted trees, on disk when ``cache_dir``
#: is set).
EXTRACT_MEMO_MAX_BINARIES = 64

BinarySource = Union[BinaryFile, str, Path]


# -- request / response types -------------------------------------------------------


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
    or a ``binary`` (object or path) plus ``function`` name.
    ``top_k=USE_DEFAULT`` picks the configured default; ``top_k=None``
    keeps every above-threshold hit.  ``threshold=USE_DEFAULT`` applies
    the configured Youden threshold; ``threshold=None`` disables the
    cutoff (the full top-k).  A negative ``top_k`` or ``threshold`` is a
    :class:`BadRequestError`.
    """

    encoding: Optional[FunctionEncoding] = None
    cve_id: Optional[str] = None
    binary: Optional[BinarySource] = None
    function: Optional[str] = None
    top_k: Union[int, None, _Default] = USE_DEFAULT
    threshold: Union[float, None, _Default] = None
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
class TrainRequest:
    """Train on the generated buildroot corpus (the paper's dataset)."""

    packages: int = 4
    pairs: int = 15
    epochs: int = 2
    embedding_dim: int = 16
    batch_size: int = 1
    lr: float = 0.05
    split: float = 0.8
    seed: int = 0
    output_path: Optional[str] = None


@dataclass
class TrainResult:
    n_train: int
    n_dev: int
    best_auc: float
    best_epoch: int
    history: TrainHistory
    model: Asteria
    model_path: Optional[str] = None


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
    ann_persisted: Optional[bool] = None
    ann_rows_projected: int = 0
    #: Tiered (ivf-pq) index surface: rows (re)quantized by the live
    #: index construction and the coarse-partition knobs it runs with.
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


#: ``EngineStats`` field -> (gauge, help): the polled state a scrape sees.
#: ``/metrics`` sets each gauge from the very snapshot ``/v1/stats`` and
#: ``/healthz`` serialise, so the three cannot disagree.
POLLED_GAUGES = {
    "model_loaded": ("repro_model_loaded", "1 when a model is resident"),
    "index_rows": ("repro_index_rows", "Rows in the embedding index"),
    "index_shards": ("repro_index_shards", "Shards in the embedding index"),
    "index_quarantined_shards": ("repro_index_quarantined_shards",
                                 "Shards quarantined by crash recovery"),
    "index_vector_bytes": ("repro_index_vector_bytes",
                           "Bytes of vector data in the index"),
    "index_resident_bytes": ("repro_index_resident_bytes",
                             "Index bytes resident in process memory"),
    "degraded": ("repro_engine_degraded", "1 when serving in degraded mode "
                 "(quarantined shards, ANN fallback, ...)"),
    "cache_hits": ("repro_cache_hits", "Artifact-cache hits (lifetime)"),
    "cache_misses": ("repro_cache_misses",
                     "Artifact-cache misses (lifetime)"),
}

#: ``EngineStats`` field -> the registry counter it is a view of (the hot
#: paths stream these in; stats only reads them back).
REGISTRY_COUNTS = {
    "n_queries": "repro_queries_total",
    "n_query_batches": "repro_query_batches_total",
    "n_query_encodes": "repro_query_encodes_total",
    "n_encoded_trees": "repro_encode_trees_total",
    "encode_block_rows": "repro_encode_block_rows",
    "n_shed": "repro_requests_shed_total",
    "n_timeouts": "repro_request_timeouts_total",
}


# -- the facade ---------------------------------------------------------------------


class AsteriaEngine:
    """One engine = one model + one cache + one index + one pipeline."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        model: Optional[Asteria] = None,
        store: Optional[EmbeddingStore] = None,
        cache: Optional[ArtifactCache] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.config = config or EngineConfig()
        self._model = model
        self._store = store
        self._cache = cache
        self._pipeline: Optional[CorpusPipeline] = None
        #: the ANN index over the store's first ``_index_rows`` rows
        #: (-1: not built yet), and why it is the exact fallback, if it is
        self._index: Optional[AnnIndex] = None
        self._index_rows = -1
        self._ann_fallback: Optional[str] = None
        self._library: Optional[Dict] = None
        self._extract_memo: "OrderedDict[str, Tuple]" = OrderedDict()
        self._lock = threading.RLock()  # store / index / pipeline state
        self._memo_lock = threading.Lock()  # extract memo + CVE library
        # in-process sweeps run outside self._lock, one per usable core:
        # 16 unbounded threads lost ~30 % of ivf-pq q/s to GIL hand-offs
        self._sweep_slots = threading.Semaphore(
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )
        #: the engine's telemetry sink, shared with every component it
        #: assembles (batcher, pipeline, ANN index, HTTP server)
        self.obs = registry if registry is not None else MetricsRegistry()
        #: coalesces concurrent query encodes: one-tree columns each,
        #: encoded unlocked by :meth:`_encode_columns`
        self.batcher = MicroBatcher(
            self._encode_columns,
            max_batch_size=self.config.micro_batch_size,
            max_wait_s=self.config.micro_batch_wait_ms / 1000.0,
            registry=self.obs,
        )
        if self.config.faults:
            # arm configured failpoints process-wide (chaos testing)
            faults.configure(self.config.faults)

    # -- owned components --------------------------------------------------

    @property
    def model(self) -> Asteria:
        """Fixed for the engine's lifetime: loaded once, read unlocked."""
        if self._model is not None:
            return self._model
        with self._lock:
            if self._model is None:
                path = self.config.model_path
                if path is None:
                    raise ModelNotFoundError(
                        "no model: set EngineConfig.model_path or pass a "
                        "model (train_model() returns one)"
                    )
                if not Path(path).exists():
                    raise ModelNotFoundError(
                        f"model checkpoint not found: {path}"
                    )
                self._model = Asteria.load(path)
            return self._model

    @property
    def pipeline(self) -> CorpusPipeline:
        """The staged pipeline, which owns the artifact cache and its lock
        (``cache_dir`` on disk, else in memory)."""
        with self._lock:
            if self._pipeline is None:
                cache = self._cache
                if cache is None and self.config.cache_dir:
                    cache = ArtifactCache(self.config.cache_dir)
                self._pipeline = CorpusPipeline(
                    self.model,
                    jobs=self.config.jobs,
                    cache=cache,
                    encode_batch_size=self.config.encode_batch_size,
                    registry=self.obs,
                    encode_dtype=self.config.encode_dtype,
                    encode_block=self.config.encode_block,
                )
            return self._pipeline

    @property
    def store(self) -> EmbeddingStore:
        """The engine's index: durable at ``index_root``, else in-memory.

        A configured ``index_root`` is opened when it exists and created
        when it does not; use :meth:`open_index` / :meth:`create_index`
        when only one of those is acceptable.
        """
        with self._lock:
            if self._store is None:
                root = self.config.index_root
                if root is None:
                    self._store = self._new_store()
                elif (Path(root) / MANIFEST_NAME).exists():
                    self._store = self.open_index()
                else:
                    self._store = self.create_index()
            return self._store

    @property
    def index_generation(self) -> int:
        """Store rows the built index covers (-1: no index built yet).

        Changes exactly when a query rebuilds the index, so a health
        endpoint can say which corpus snapshot queries are answered from
        without triggering a build.
        """
        return self._index_rows

    def _encode_columns(self, parts: Sequence[TreeColumns]) -> np.ndarray:
        """The served encoder of query and compare: unlocked (the model
        is immutable), each vector independent of what shares its batch."""
        config = self.config
        return self.model.encode_columns(
            TreeColumns.concat(parts), config.encode_batch_size,
            dtype=config.encode_dtype, block=config.encode_block,
            registry=self.obs,
        )

    # -- index lifecycle ---------------------------------------------------

    def _new_store(self, root=None, meta=None):
        """A fresh store in this engine's shape (model dim, configured
        shard size and dtype): in memory, or created at ``root``."""
        shape = dict(
            dim=self.model.config.hidden_dim,
            shard_size=self.config.shard_size,
            dtype=self.config.store_dtype,
        )
        if root is None:
            return EmbeddingStore.in_memory(**shape)
        try:
            return EmbeddingStore.create(root, meta=meta, **shape)
        except StoreError as exc:
            raise IndexStoreError(str(exc)) from exc

    def create_index(self, meta: Optional[Dict] = None) -> EmbeddingStore:
        """Create a new durable index at ``config.index_root``."""
        root = self.config.index_root
        if root is None:
            raise IndexStoreError(
                "create_index needs EngineConfig.index_root"
            )
        store = self._new_store(root, meta=meta)
        self._adopt_store(store)
        return store

    def open_index(self) -> EmbeddingStore:
        """Open the existing durable index at ``config.index_root``."""
        root = self.config.index_root
        if root is None:
            raise IndexStoreError("open_index needs EngineConfig.index_root")
        try:
            store = EmbeddingStore.open(root)
        except StoreError as exc:
            raise IndexStoreError(str(exc)) from exc
        self._adopt_store(store)
        return store

    def _adopt_store(self, store: EmbeddingStore) -> None:
        with self._lock:
            self._store = store
            self._index, self._index_rows = None, -1
            self._ann_fallback = None

    def _built_index(self, store: EmbeddingStore) -> AnnIndex:
        """The ANN index over ``store``, rebuilt when a flush grew it.

        Called under the engine lock.  The stateful backend (``ivf-pq``)
        over a durable store round-trips through the state persisted
        beside the shards: an unchanged corpus reopens without any
        quantization pass, a grown one quantizes only the appended rows,
        and either way the refreshed state is written back.  A build
        failure other than a client error degrades to the exact sweep
        (correct, slower) rather than failing every query.
        """
        if self._index is not None and self._index_rows == store.n_flushed:
            return self._index
        config = self.config
        options = dict(
            seed=config.seed, n_lists=config.ann_lists,
            nprobe=config.ann_nprobe, rerank=config.ann_rerank,
        ) if config.backend == "ivf-pq" else {}
        stateful = (
            backend_is_stateful(config.backend) and store.root is not None
        )
        if stateful:
            options["state"] = store.read_ann_state()
        try:
            index = make_index(
                config.backend, self.model, store.vectors(),
                store.callee_counts(), registry=self.obs, **options,
            )
            # write the state back unless the persisted one is current
            if stateful and (
                index.rows_projected or not index.loaded_from_state
            ):
                try:  # best effort: the index serves either way
                    store.write_ann_state(*index.state_dict())
                except OSError as exc:
                    _LOG.warning("could not persist ANN state: %s", exc)
            self._ann_fallback = None
        except BadRequestError:
            raise  # unknown backend, bad knob: the caller's to fix
        except Exception as exc:
            if config.backend == "exact":
                raise  # nothing simpler to fall back to
            self._ann_fallback = (
                f"{config.backend} index construction failed ({exc}); "
                f"serving exact sweeps"
            )
            _LOG.warning("ANN fallback: %s", self._ann_fallback)
            self.obs.counter(
                "repro_ann_fallback_total",
                "ANN construction failures degraded to exact sweeps",
            ).inc()
            index = make_index(
                "exact", self.model, store.vectors(), store.callee_counts(),
                registry=self.obs,
            )
        self._index, self._index_rows = index, store.n_flushed
        self.obs.counter(
            "repro_index_rebuilds_total",
            "ANN index (re)constructions over the store",
        ).inc()
        return index

    # -- encode ------------------------------------------------------------

    def encode(self, request: Optional[EncodeRequest] = None,
               **kw) -> EncodeResult:
        """Offline phase for one binary (through the artifact cache)."""
        request = request or EncodeRequest(**kw)
        binary = load_binary(request.binary)
        with trace("engine.encode", binary=binary.name):
            encodings = self.pipeline.encode_binary(binary)
        if request.function is not None:
            encodings = [e for e in encodings if e.name == request.function]
            if not encodings:
                raise BadRequestError(
                    f"function {request.function!r} not found (or below the "
                    f"AST size floor) in binary {binary.name!r}"
                )
        return EncodeResult(
            binary_name=binary.name, arch=binary.arch, encodings=encodings
        )

    # -- ingest ------------------------------------------------------------

    def ingest(self, request: Optional[IngestRequest] = None,
               **kw) -> PipelineStats:
        """Offline phase for corpora: one pipeline run -> embedding index.

        Returns that run's stats, with the Index stage (append + flush)
        in ``times.index_s`` and the index's rows after it in
        ``n_rows_total``."""
        request = request or IngestRequest(**kw)
        images = list(request.images)
        if request.corpus_images is not None:  # 0 = an (empty) corpus
            from repro.evalsuite.vulnsearch import build_firmware_dataset

            dataset = build_firmware_dataset(
                n_images=request.corpus_images, seed=request.corpus_seed
            )
            images.extend(dataset.images)
        with trace("engine.ingest", n_images=len(images),
                   n_binaries=len(request.binaries)) as span:
            # the pipeline runs without the engine lock (it holds its own
            # cache lock): stats and query pins never wait on a decompile
            run = self.pipeline.run(images, request.binaries)
            stats = run.stats
            with self._lock:  # the Index stage: append, flush once
                store = self.store
                started = time.perf_counter()
                for image_id, encoding in run.encodings:
                    store.add(encoding, image_id=image_id)
                store.flush()
                self.pipeline.record_index(
                    stats, time.perf_counter() - started, len(store)
                )
            span.set(n_functions=stats.n_functions,
                     n_rows_total=stats.n_rows_total)
        _LOG.info(
            "ingested %d functions (%d total rows)",
            stats.n_functions, stats.n_rows_total,
        )
        return stats

    # -- query -------------------------------------------------------------

    def cve_library(self) -> Dict[str, Tuple]:
        """``{cve_id: (CVEEntry, FunctionEncoding)}``, encoded once.

        The query side of the paper's search protocol; encodings go
        through the same artifact cache as the corpus.  Built without
        the engine lock and published first-writer-wins (a concurrent
        duplicate build reads the cache the first one filled).
        """
        if self._library is not None:
            return self._library
        from repro.compiler.pipeline import compile_package
        from repro.evalsuite.vulnsearch import CVE_LIBRARY, vulnerable_function
        from repro.lang.nodes import Package

        library = {}
        for entry in CVE_LIBRARY:
            package = Package(
                name=f"{entry.software}-{entry.vulnerable_version}",
                functions=[vulnerable_function(entry)],
            )
            binary = compile_package(package, "x86")
            by_name = {
                encoding.name: encoding
                for encoding in self.pipeline.encode_binary(binary)
            }
            encoding = by_name.get(entry.function_name)
            if encoding is None:
                raise ValueError(
                    f"CVE function {entry.function_name!r} did not "
                    f"survive decompilation/preprocessing"
                )
            library[entry.cve_id] = (entry, encoding)
        with self._memo_lock:
            if self._library is None:
                self._library = library
            return self._library

    def _deadline_of(self, request: QueryRequest) -> Optional[float]:
        """The request's absolute deadline (its own, or one derived from
        ``config.request_timeout_ms`` starting now)."""
        if request.deadline is not None:
            return request.deadline
        timeout_ms = self.config.request_timeout_ms
        if timeout_ms is None:
            return None
        return time.monotonic() + timeout_ms / 1000.0

    @staticmethod
    def _check_deadline(deadline: Optional[float], where: str) -> None:
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceededError(
                f"request overran its deadline before the {where}"
            )

    def _count_timeout(self) -> None:
        self.obs.counter(
            "repro_request_timeouts_total",
            "Requests abandoned at their deadline",
        ).inc()

    def query(self, request: Optional[QueryRequest] = None,
              **kw) -> QueryResult:
        """Top-k similar corpus functions for one query.

        The one-request case of :meth:`query_batch`, minus the batch
        counter.  Concurrent callers coalesce their query-side encodes
        into shared level-batched GEMM calls; results are bit-for-bit
        identical to serial execution.  A request that cannot finish by
        its deadline (``request.deadline`` or
        ``config.request_timeout_ms``) raises
        :class:`DeadlineExceededError` instead of holding its slot.
        """
        return self._answer(
            [request or QueryRequest(**kw)], "engine.query",
            "repro_query_seconds", "Wall time of one engine.query call",
        )[0]

    def query_batch(
        self, requests: Sequence[QueryRequest]
    ) -> List[QueryResult]:
        """Many queries in one pass: batched encode, batched top-k.

        Returns the hits of mapping :meth:`query` over the same
        encodings, rows and scores bit for bit, but binary-sourced
        query encodes run as one micro-batched level-batched GEMM call
        and the top-k scoring sweeps the corpus once for the whole batch
        instead of once per request.  Requests sharing effective
        ``top_k``/``threshold`` values are scored together; mixed
        parameters simply split the batch into a few sub-batches.
        """
        requests = list(requests)
        if not requests:
            return []
        results = self._answer(
            requests, "engine.query_batch", "repro_query_batch_seconds",
            "Wall time of one engine.query_batch call",
        )
        self.obs.counter(
            "repro_query_batches_total", "query_batch calls answered"
        ).inc()
        return results

    def _answer(
        self,
        requests: List[QueryRequest],
        span_name: str,
        metric: str,
        help_text: str,
    ) -> List[QueryResult]:
        """Resolve, group and sweep ``requests`` under one span."""
        deadlines = [
            d for d in (self._deadline_of(r) for r in requests)
            if d is not None
        ]
        # the earliest per-request deadline bounds the shared phases (one
        # encode pass + one sweep serve the whole batch)
        deadline = min(deadlines) if deadlines else None
        try:
            with trace(span_name, n_queries=len(requests)) as span:
                results = self._resolve_and_sweep(requests, deadline, span)
        except DeadlineExceededError:
            self._count_timeout()
            raise
        self.obs.counter(
            "repro_queries_total", "Queries answered by the engine"
        ).inc(len(requests))
        self._observe_query(span, metric, help_text)
        return results

    def _resolve_and_sweep(
        self,
        requests: List[QueryRequest],
        deadline: Optional[float],
        span: Span,
    ) -> List[QueryResult]:
        groups: Dict[Tuple, List[int]] = {}
        for i, request in enumerate(requests):
            top_k = (
                self.config.top_k if request.top_k is USE_DEFAULT
                else request.top_k
            )
            threshold = (
                self.config.threshold if request.threshold is USE_DEFAULT
                else request.threshold
            )
            if top_k is not None and top_k < 0:
                raise BadRequestError(f"top_k must be >= 0, got {top_k}")
            if threshold is not None:
                # NaN compares false with every score: a silent empty answer
                if not math.isfinite(threshold):
                    raise BadRequestError(
                        f"threshold must be a finite number, got {threshold}"
                    )
                if threshold < 0:
                    raise BadRequestError(
                        f"threshold must be >= 0, got {threshold}"
                    )
            groups.setdefault((top_k, threshold), []).append(i)
        resolved = self._resolve_queries(requests, deadline)
        self._check_deadline(deadline, "corpus sweep")
        results: List[Optional[QueryResult]] = [None] * len(requests)
        # the lock covers only the pin -- the index, refreshed in step
        # with store flushes -- and every group sweeps it unlocked
        with self._lock:
            store = self.store
            index = self._built_index(store)
        n_rows = len(index)
        for (top_k, threshold), members in groups.items():
            encodings = [resolved[i][1] for i in members]
            with self._sweep_slots:
                neighbor_lists = index.top_k_batch(
                    encodings, k=top_k, threshold=threshold
                )
            for i, neighbors in zip(members, neighbor_lists):
                name, encoding = resolved[i]
                results[i] = QueryResult(
                    query=name, encoding=encoding, n_rows=n_rows,
                    hits=[store.hit(n.row, n.score) for n in neighbors],
                )
        span.set(
            queries=[name for name, _encoding in resolved],
            n_groups=len(groups), n_rows=n_rows,
        )
        return results

    def _observe_query(self, span: Span, metric: str, help_text: str) -> None:
        """Record a closed query span: latency histogram + slow-query log."""
        self.obs.histogram(metric, help_text).observe(span.wall_s)
        threshold_ms = self.config.slow_query_ms
        if threshold_ms is None or span.wall_s * 1000.0 < threshold_ms:
            return
        self.obs.counter(
            "repro_slow_queries_total",
            "Queries slower than EngineConfig.slow_query_ms",
        ).inc()
        _LOG.warning(
            "slow query (%.1fms >= %.1fms): %s",
            span.wall_s * 1000.0, threshold_ms,
            json.dumps(span.to_dict(), sort_keys=True),
        )

    def _resolve_queries(
        self,
        requests: Sequence[QueryRequest],
        deadline: Optional[float],
    ) -> List[Tuple[str, FunctionEncoding]]:
        """``(display name, encoding)`` per request, coalescing encodes.

        Requests that need a query-side encode contribute their tree
        columns to a single :meth:`MicroBatcher.encode_many` call, so a
        Q-query batch costs a handful of wide GEMM passes instead of Q
        tree walks.  Tree extraction (model-independent) is cached; the
        encode itself is deliberately fresh each call so the batcher --
        not a memo -- carries concurrent load.
        """
        resolved: List[Optional[Tuple[str, FunctionEncoding]]] = (
            [None] * len(requests)
        )
        jobs: List[Tuple[int, str, ExtractedBinary, int]] = []
        for i, request in enumerate(requests):
            if request.encoding is not None:
                resolved[i] = (request.encoding.name, request.encoding)
                continue
            if request.cve_id is not None:
                library = self.cve_library()
                if request.cve_id not in library:
                    raise BadRequestError(
                        f"unknown CVE id: {request.cve_id}"
                    )
                entry, encoding = library[request.cve_id]
                resolved[i] = (entry.cve_id, encoding)
                continue
            if request.binary is None:
                raise BadRequestError(
                    "query needs an encoding, a cve_id, or a binary + "
                    "function"
                )
            if not request.function:
                raise BadRequestError("binary queries need a function name")
            binary = load_binary(request.binary)
            extracted, rows = self._extracted_for(binary)
            if request.function not in rows:
                raise BadRequestError(
                    f"function {request.function!r} not found (or below "
                    f"the AST size floor) in binary {binary.name!r}"
                )
            jobs.append((
                i, f"{binary.name}:{request.function}", extracted,
                rows[request.function],
            ))
        if jobs:
            with trace("engine.encode_queries", n=len(jobs)):
                vectors = self.batcher.encode_many(
                    [extracted.columns().tree(row)
                     for _i, _name, extracted, row in jobs],
                    deadline=deadline,
                )
            self.obs.counter(
                "repro_query_encodes_total",
                "Query-side function encodes",
            ).inc(len(jobs))
            beta = self.model.config.beta
            for (i, name, extracted, row), vector in zip(jobs, vectors):
                resolved[i] = (name, extracted.encoding(row, vector, beta))
        return resolved

    def _extracted_for(
        self, binary: BinaryFile
    ) -> Tuple[ExtractedBinary, Dict[str, int]]:
        """Memoized: ``binary``'s extracted columns, function name -> row."""
        digest = binary_digest(binary)
        with self._memo_lock:
            entry = self._extract_memo.get(digest)
            if entry is not None:
                self._extract_memo.move_to_end(digest)
                return entry
        extracted = self.pipeline.extracted(binary, digest)
        entry = (extracted, {n: i for i, n in enumerate(extracted.names)})
        with self._memo_lock:
            entry = self._extract_memo.setdefault(digest, entry)
            self._extract_memo.move_to_end(digest)
            while len(self._extract_memo) > EXTRACT_MEMO_MAX_BINARIES:
                self._extract_memo.popitem(last=False)  # evict oldest
            return entry

    # -- compare -----------------------------------------------------------

    def compare(self, request: Optional[CompareRequest] = None,
                **kw) -> CompareResult:
        """Pairwise scores for two named binary functions.

        Scored by the head every query sweep uses
        (:meth:`Asteria.similarity_matrix`), so comparing a query
        function with one of its hits gives that hit's score.
        """
        request = request or CompareRequest(**kw)
        model = self.model  # a missing checkpoint outranks missing inputs
        e1 = self._compare_encoding(request.binary1, request.function1)
        e2 = self._compare_encoding(request.binary2, request.function2)
        row = np.asarray(e2.vector)[None, :]
        return CompareResult(
            function1=request.function1,
            function2=request.function2,
            ast_similarity=float(
                model.similarity_matrix([e1], row, calibrate=False)[0, 0]
            ),
            similarity=float(
                model.similarity_matrix([e1], row, [e2.callee_count])[0, 0]
            ),
        )

    def _compare_encoding(
        self, source: Optional[BinarySource], function: str
    ) -> FunctionEncoding:
        """One function through the served encoder, with no AST size floor
        (the paper's pairwise protocol scores every decompilable one)."""
        from repro.decompiler import decompile_function

        binary = load_binary(source)
        try:
            record = binary.function_named(function)
        except KeyError as exc:
            raise BadRequestError(str(exc)) from exc
        fn = decompile_function(binary, record)
        columns = TreeColumns.single(*lcrs_columns(fn.ast))
        [vector] = self._encode_columns([columns])
        beta = self.model.config.beta
        return FunctionEncoding(
            name=fn.name, arch=fn.arch, binary_name=fn.binary_name,
            vector=vector, ast_size=len(columns.labels),
            callee_count=filtered_callee_count(fn.callees, beta),
        )

    # -- stats -------------------------------------------------------------

    def stats(self) -> EngineStats:
        """Counters snapshot of already-materialised state.

        Deliberately side-effect free: it never loads the model, builds
        the pipeline/cache, or touches disk, so a monitoring endpoint
        polling it cannot perturb the engine.  ``model_fingerprint`` is
        therefore only reported once the pipeline exists (i.e. after the
        first encode/ingest/query).
        """
        batches = self.batcher.stats
        stats = EngineStats(
            model_loaded=self._model is not None,
            model_path=self.config.model_path,
            index_root=self.config.index_root,
            micro_batches=batches.n_batches,
            micro_batched_items=batches.n_items,
            micro_batch_max=batches.max_batch_size,
            micro_batch_mean=batches.mean_batch_size,
            config=self.config.to_dict(),
        )
        with self._lock:
            if self._pipeline is not None:
                stats.model_fingerprint = self._pipeline.model_fingerprint
                stats.cache_hits = self._pipeline.cache.stats.hits
                stats.cache_misses = self._pipeline.cache.stats.misses
            if self._store is not None:
                stats.index_rows = len(self._store)
                stats.index_shards = self._store.n_shards
                footprint = self._store.memory_footprint()
                stats.index_dtype = footprint["dtype"]
                stats.index_mmap = footprint["mmap"]
                stats.index_vector_bytes = footprint["vector_bytes"]
                stats.index_resident_bytes = footprint["resident_bytes"]
                stats.index_quarantined_shards = len(self._store.quarantined)
                if self._store.degraded:
                    stats.degraded_reasons.append(
                        f"{len(self._store.quarantined)} shard(s) "
                        f"quarantined; serving a corpus prefix"
                    )
            if self._ann_fallback is not None:
                stats.degraded_reasons.append(self._ann_fallback)
            index = self._index
            if index is not None:
                stats.ann_backend = self.config.backend
            if isinstance(index, IvfPqIndex):
                stats.ann_persisted = index.loaded_from_state
                stats.ann_rows_projected = index.rows_projected
                stats.ann_rows_quantized = index.rows_quantized
                stats.ann_n_lists = index.n_lists
                stats.ann_nprobe = index.nprobe
        for name, counter in REGISTRY_COUNTS.items():
            setattr(stats, name, int(self.obs.value(counter)))
        stats.degraded = bool(stats.degraded_reasons)
        return stats

    def _sync_observability(self) -> None:
        """Set the polled gauges from one :meth:`stats` snapshot, so a
        scrape reflects the present, not the last event."""
        stats = self.stats()
        for name, (gauge, help_text) in POLLED_GAUGES.items():
            self.obs.gauge(gauge, help_text).set(getattr(stats, name))

    def metrics_text(self) -> str:
        """The registry as Prometheus text exposition (``GET /metrics``)."""
        self._sync_observability()
        return self.obs.to_prometheus()

    def flush_metrics(self) -> Dict:
        """Sync gauges and return a final registry snapshot.

        Called on clean shutdown so in-flight coalescing counters land in
        the shutdown response instead of dying with the process.
        """
        self._sync_observability()
        return self.obs.snapshot()


# -- input loading -----------------------------------------------------------------


def parse_binary(data: bytes, label: str) -> BinaryFile:
    """RBIN bytes as a binary, else a BadRequestError naming ``label``."""
    try:
        return BinaryFile.from_bytes(data)
    except Exception as exc:
        raise BadRequestError(
            f"{label} is not a valid RBIN binary: {exc}"
        ) from exc


def load_binary(source: Optional[BinarySource]) -> BinaryFile:
    """A binary, or the RBIN file at a path: a missing file is
    InputNotFoundError, one that is not RBIN a BadRequestError."""
    if isinstance(source, BinaryFile):
        return source
    if source is None:
        raise BadRequestError("no binary given")
    path = Path(source)
    if not path.exists():
        raise InputNotFoundError(f"no such binary: {path}")
    return parse_binary(path.read_bytes(), str(path))


# -- training -----------------------------------------------------------------------


def train_model(request: Optional[TrainRequest] = None,
                **kw) -> TrainResult:
    """Train a fresh model on the generated corpus (no engine involved).

    Serve the result with ``AsteriaEngine(model=result.model)``, or load
    ``request.output_path`` through ``EngineConfig.model_path``.
    """
    from repro.core.pairs import (
        build_cross_arch_pairs,
        split_pairs,
        to_tree_pairs,
    )
    from repro.evalsuite.datasets import build_buildroot_dataset

    request = request or TrainRequest(**kw)
    dataset = build_buildroot_dataset(
        n_packages=request.packages, seed=request.seed
    )
    pairs = to_tree_pairs(
        build_cross_arch_pairs(
            dataset.functions, request.pairs, seed=request.seed
        )
    )
    train, dev = split_pairs(pairs, request.split, seed=request.seed)
    model = Asteria(AsteriaConfig(embedding_dim=request.embedding_dim))
    trainer = Trainer(
        model.siamese,
        TrainConfig(
            epochs=request.epochs,
            lr=request.lr,
            batch_size=request.batch_size,
        ),
    )
    try:
        history = trainer.train(train, dev)
    except ValueError as exc:  # no training pairs, or a one-class dev split
        raise BadRequestError(f"cannot train: {exc}") from exc
    if request.output_path:
        model.save(request.output_path)
    return TrainResult(
        n_train=len(train),
        n_dev=len(dev),
        best_auc=history.best_auc,
        best_epoch=history.best_epoch,
        history=history,
        model=model,
        model_path=request.output_path,
    )
