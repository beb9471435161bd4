"""The unified Asteria facade: one object, the whole paper workflow.

:class:`AsteriaEngine` owns the model, the artifact cache, the embedding
index and the staged corpus pipeline behind one
:class:`~repro.api.config.EngineConfig`, and exposes the full lifecycle
through the request/response dataclasses of :mod:`repro.api.types`:

* :meth:`AsteriaEngine.encode`  -- binary -> function encodings (cached);
* :meth:`AsteriaEngine.ingest`  -- firmware/binaries -> embedding index
  in one staged-pipeline run, returning that run's ``PipelineStats``;
* :meth:`AsteriaEngine.query` / :meth:`query_batch` -- top-k similar
  functions, the online phase of :mod:`repro.api.query`;
* :meth:`AsteriaEngine.compare` -- pairwise M / calibrated F scores;
* :meth:`AsteriaEngine.stats`   -- counters for monitoring and tests.

:func:`~repro.api.train.train_model` fits a fresh model; serve it with
``AsteriaEngine(model=result.model)``.  An engine's model is fixed for
its lifetime, and everything it encodes goes through one columns
encoder (:meth:`Asteria.encode_columns`).

Every consumer -- the CLI, the HTTP server
(:mod:`repro.api.server`), ``VulnerabilitySearch``, benchmarks and
examples -- constructs its model/cache/index/pipeline stack through
this class; nothing else in the repo assembles those pieces by hand.
The engine owns the one ANN index over its store, rebuilt when a flush
grows the store by one :func:`~repro.index.ann.serve_index` call that
names no backend here (building, persisting and the exact fallback are
:mod:`repro.index`'s), and every query -- served, CLI or the Table IV
search -- is answered from it, with hits read from the store.
The engine is thread-safe.  Every query sweeps the index in process;
there is one index layout, the flat store at ``index_root``.  The
engine lock guards only lazy construction and the index: an ingest
runs its pipeline unlocked (the pipeline holds its own artifact-cache
lock) and takes the engine lock to append and flush; a query takes it
only in :meth:`_pin`; encodes read only the immutable model.  So
:meth:`stats` (and ``/healthz``) never waits on an encode, a sweep or a
corpus being decompiled.  Code may take the pipeline lock while holding
the engine lock, never the reverse.
"""

from __future__ import annotations

import threading
import time

import numpy as np
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import repro.faults as faults
from repro.api.batching import MicroBatcher
from repro.api.config import EngineConfig
from repro.api.errors import (
    BadRequestError,
    IndexStoreError,
    InputNotFoundError,
    ModelNotFoundError,
)
from repro.api.query import OnlinePhase
from repro.api.types import (
    BinarySource,
    CompareRequest,
    CompareResult,
    EncodeRequest,
    EncodeResult,
    EngineStats,
    IngestRequest,
    QueryRequest,  # noqa: F401 - callers import it from here
)
from repro.binformat.binary import BinaryFile
from repro.core.calibration import filtered_callee_count
from repro.core.model import Asteria, FunctionEncoding
from repro.core.preprocess import lcrs_columns
from repro.index.ann import AnnIndex, serve_index
from repro.index.store import MANIFEST_NAME, EmbeddingStore, StoreError
from repro.nn.treebatch import TreeColumns
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import trace
from repro.pipeline import ArtifactCache, CorpusPipeline, PipelineStats
from repro.utils.logging import get_logger

_LOG = get_logger("api.engine")


class AsteriaEngine(OnlinePhase):
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
        self._lock = threading.RLock()  # store / index / pipeline state
        super().__init__()  # the online phase's memo and sweep slots
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
                try:
                    self._model = Asteria.load(path)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    # a damaged archive (``load_state``), or one that
                    # holds no Asteria model
                    raise ModelNotFoundError(
                        f"unreadable model checkpoint {path}: {exc}"
                    ) from exc
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

        Called under the engine lock.  How the configured backend is
        built, persisted and degraded is :func:`serve_index`'s; the
        engine keeps the index and, for :meth:`stats`, the reason it
        serves the exact sweep instead, if it does.
        """
        if self._index is not None and self._index_rows == store.n_flushed:
            return self._index
        config = self.config
        index, self._ann_fallback = serve_index(
            config.backend, self.model, store, self.obs, seed=config.seed,
            n_lists=config.ann_lists, nprobe=config.ann_nprobe,
            rerank=config.ann_rerank,
        )
        self._index, self._index_rows = index, store.n_flushed
        self.obs.counter("repro_index_rebuilds_total").inc()
        return index

    def _pin(self) -> Tuple[EmbeddingStore, AnnIndex]:
        """The store and the index over its flushed rows, as one pair: a
        query sweeps this snapshot unlocked while ingests append."""
        with self._lock:
            store = self.store
            return store, self._built_index(store)

    # -- encode ------------------------------------------------------------

    def encode(self, request: EncodeRequest) -> EncodeResult:
        """Offline phase for one binary (through the artifact cache)."""
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

    def ingest(self, request: IngestRequest) -> PipelineStats:
        """Offline phase for corpora: one pipeline run -> embedding index.

        Returns that run's stats, with the Index stage (append + flush)
        in ``times.index_s`` and the index's rows after it in
        ``n_rows_total``."""
        images = list(request.images)
        if request.corpus_images is not None:  # 0 = an (empty) corpus
            from repro.evalsuite.vulnsearch import build_firmware_dataset

            if request.corpus_seed < 0:  # numpy takes no negative seed
                raise BadRequestError(
                    f"corpus_seed must be >= 0, got {request.corpus_seed}")
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

    # -- compare -----------------------------------------------------------

    def compare(self, request: CompareRequest) -> CompareResult:
        """Pairwise scores for two named binary functions.

        Scored by the head every query sweep uses
        (:meth:`Asteria.similarity_matrix`), so comparing a query
        function with one of its hits gives that hit's score.
        """
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

        Every count is read from the registry: each field a ``METRICS``
        entry names (not ``polled``: those gauges are set from this
        snapshot at each scrape), and ``micro_batch_*`` from one read of
        the ``repro_microbatch_size`` histogram.
        """
        sizes = self.obs.get("repro_microbatch_size")
        batches, items, widest = sizes.totals() if sizes else (0, 0.0, 0.0)
        stats = EngineStats(
            model_loaded=self._model is not None,
            model_path=self.config.model_path,
            index_root=self.config.index_root,
            micro_batches=batches,
            micro_batched_items=int(items),
            micro_batch_max=int(widest),
            micro_batch_mean=items / batches if batches else 0.0,
            config=self.config.to_dict(),
        )
        with self._lock:
            if self._pipeline is not None:
                stats.model_fingerprint = self._pipeline.model_fingerprint
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
            if self._index is not None:
                stats.ann_backend = self.config.backend
                for name, value in self._index.ann_stats().items():
                    setattr(stats, name, value)
        for metric in METRICS.values():
            if metric.stat is not None and not metric.polled:
                setattr(stats, metric.stat, int(self.obs.value(metric.name)))
        stats.degraded = bool(stats.degraded_reasons)
        return stats

    def _sync_observability(self) -> None:
        """Set the polled gauges from one :meth:`stats` snapshot, so a
        scrape reflects the present, not the last event."""
        stats = self.stats()
        for metric in METRICS.values():
            if metric.polled:
                self.obs.gauge(metric.name).set(getattr(stats, metric.stat))

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
    """A binary, RBIN bytes (a request's decoded ``binary_b64``), or the
    RBIN file at a path: a missing file is InputNotFoundError; a
    directory or other non-regular file, or bytes or a file that are not
    RBIN, a BadRequestError."""
    if isinstance(source, BinaryFile):
        return source
    if isinstance(source, bytes):
        return parse_binary(source, "binary_b64")
    if source is None:
        raise BadRequestError("no binary given")
    path = Path(source)
    if not path.exists():
        raise InputNotFoundError(f"no such binary: {path}")
    if not path.is_file():
        raise BadRequestError(
            f"{path} is not a valid RBIN binary: "
            f"{'a directory' if path.is_dir() else 'not a regular file'}"
        )
    return parse_binary(path.read_bytes(), str(path))

