"""The staged corpus pipeline: Unpack -> Decompile -> Preprocess -> Encode.

:class:`CorpusPipeline` is the one implementation of the paper's offline
phase (§V, Fig. 10): every consumer -- the firmware vulnerability search,
the timing suite, dataset builders, the persistent index and the CLI --
feeds corpora through it instead of hand-rolling its own
unpack/decompile/encode loop.  :meth:`CorpusPipeline.run` is its one
entry point: one call takes firmware images and loose binaries together
and is one run.  A run returns its encodings, tagged with their firmware
image, and writes no index: the Index stage (append + flush) is the
caller's -- ``AsteriaEngine.ingest`` times it into
:attr:`StageTimes.index_s` through :meth:`CorpusPipeline.record_index`
and returns the run's :class:`PipelineStats`.
On top of the shared stage functions it adds:

* **artifact caching** (:class:`~repro.pipeline.cache.ArtifactCache`):
  per-binary trees and encodings are content-addressed, so warm runs skip
  straight to cached encodings and a retrained model re-runs only Encode.
  The cache is not itself thread-safe; the pipeline owns it and holds one
  lock across every run and every :meth:`CorpusPipeline.extracted` cache
  call, and it never calls back into its caller while holding it;
* **worker-pool extraction** (:mod:`repro.pipeline.workers`): the
  CPU-bound Decompile + Preprocess stages fan out over processes, feeding
  the level-batched encoder in the parent -- results are bit-for-bit
  identical to a serial run, in the same order;
* **instrumentation**: per-stage wall/CPU seconds, corpus counts and
  cache hit/miss accounting in :class:`PipelineStats`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.binformat.binary import BinaryFile
from repro.binformat.binwalk import UnpackError
from repro.core.model import (
    DEFAULT_ENCODE_BATCH_SIZE,
    DEFAULT_ENCODE_DTYPE,
    Asteria,
    FunctionEncoding,
)
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.cache import ArtifactCache, CacheStats, binary_digest
from repro.pipeline.stages import (
    ExtractedBinary,
    encode_stage,
    extract_binary,
    unpack_stage,
)
from repro.pipeline.workers import extract_stream
from repro.utils.logging import get_logger

_LOG = get_logger("pipeline.corpus")


@dataclass
class StageTimes:
    """Seconds spent per pipeline stage.

    ``decompile_s``/``preprocess_s`` are summed per-binary (CPU seconds
    across all workers); ``extract_wall_s`` is the wall time of the
    streamed Decompile + Preprocess stage with the interleaved encode
    time subtracted, so with ``jobs > 1`` it is the smaller number.
    ``index_s`` is the caller's append + flush of the run's encodings
    (:meth:`CorpusPipeline.record_index`); a run alone leaves it 0.
    """

    unpack_s: float = 0.0
    decompile_s: float = 0.0
    preprocess_s: float = 0.0
    extract_wall_s: float = 0.0
    encode_s: float = 0.0
    index_s: float = 0.0


@dataclass
class PipelineStats:
    """What one pipeline run processed, skipped, and reused."""

    n_images: int = 0
    n_unpack_failures: int = 0
    n_binaries: int = 0  # binary occurrences (duplicates included)
    n_unique_binaries: int = 0  # distinct content digests
    n_extracted: int = 0  # digests decompiled + preprocessed this run
    n_encoded: int = 0  # digests encoded this run
    n_functions: int = 0  # encodings produced, over occurrences
    n_skipped_small: int = 0  # below-size-floor functions, over occurrences
    n_rows_total: int = 0  # index rows after the caller's Index stage
    times: StageTimes = field(default_factory=StageTimes)
    cache: CacheStats = field(default_factory=CacheStats)

    def summary(self) -> str:
        """Human-readable per-stage report (printed by the CLI)."""
        times = self.times
        lines = []
        if self.n_images:
            lines.append(
                f"stage  unpack      {times.unpack_s:8.3f}s  "
                f"({self.n_images} images, "
                f"{self.n_unpack_failures} unidentifiable)"
            )
        lines.append(
            f"stage  decompile   {times.decompile_s:8.3f}s  "
            f"(extracted {self.n_extracted} of {self.n_unique_binaries} "
            f"unique binaries, wall {times.extract_wall_s:.3f}s)"
        )
        lines.append(f"stage  preprocess  {times.preprocess_s:8.3f}s")
        lines.append(
            f"stage  encode      {times.encode_s:8.3f}s  "
            f"(encoded {self.n_encoded} binaries, "
            f"{self.n_functions} functions, "
            f"{self.n_skipped_small} below size floor)"
        )
        lines.append(
            f"stage  index       {times.index_s:8.3f}s  "
            f"({self.n_binaries} binary occurrences)"
        )
        lines.append(
            f"cache  trees: {self.cache.tree_hits} hits / "
            f"{self.cache.tree_misses} misses; "
            f"encodings: {self.cache.encoding_hits} hits / "
            f"{self.cache.encoding_misses} misses"
        )
        return "\n".join(lines)


@dataclass
class PipelineResult:
    """Encodings (tagged with their firmware image) plus run statistics."""

    encodings: List[Tuple[str, FunctionEncoding]]
    stats: PipelineStats


@dataclass
class _Entry:
    """Per-digest working state during one run."""

    binary: BinaryFile
    encodings: Optional[List[FunctionEncoding]] = None
    extracted: Optional[ExtractedBinary] = None
    n_skipped_small: int = 0


Tagged = Tuple[BinaryFile, str]


class CorpusPipeline:
    """Composable staged corpus pipeline with caching and worker pools."""

    def __init__(
        self,
        model: Asteria,
        jobs: int = 1,
        cache: Optional[ArtifactCache] = None,
        encode_batch_size: int = DEFAULT_ENCODE_BATCH_SIZE,
        registry: Optional[MetricsRegistry] = None,
        encode_dtype: str = DEFAULT_ENCODE_DTYPE,
        encode_block: int = 0,
    ):
        if encode_batch_size < 1:
            raise ValueError("encode_batch_size must be >= 1")
        if str(encode_dtype) not in ("float32", "float64"):
            raise ValueError(
                f"encode_dtype must be float32 or float64, got {encode_dtype!r}"
            )
        self.model = model
        self.jobs = max(1, int(jobs))
        self.cache = cache if cache is not None else ArtifactCache.in_memory()
        self.encode_batch_size = encode_batch_size
        self.encode_dtype = str(encode_dtype)
        self.encode_block = int(encode_block)
        self.registry = registry
        self._fingerprint: Optional[str] = None
        self._lock = threading.Lock()  # the artifact cache is not thread-safe
        self._counted = CacheStats()  # cache lookups already in the counters

    @property
    def model_fingerprint(self) -> str:
        """The model's weight fingerprint (computed once per pipeline)."""
        if self._fingerprint is None:
            self._fingerprint = self.model.fingerprint()
        return self._fingerprint

    # -- entry points ------------------------------------------------------

    def run(
        self,
        images: Iterable = (),
        binaries: Iterable[Union[BinaryFile, Tagged]] = (),
    ) -> PipelineResult:
        """One run of every stage over firmware images plus loose binaries.

        An unidentifiable image is counted and skipped.  A loose binary is
        a :class:`BinaryFile` (tagged ``""``) or a ``(binary, image_id)``
        pair.  Encodings come back per occurrence: each image's binaries,
        then the loose ones."""
        stats = PipelineStats()
        tagged: List[Tagged] = []
        started = time.perf_counter()
        for image in images:
            stats.n_images += 1
            try:
                unpacked = unpack_stage(image)
            except UnpackError:
                stats.n_unpack_failures += 1
                continue
            tagged.extend((binary, image.identifier) for binary in unpacked)
        stats.times.unpack_s = time.perf_counter() - started
        tagged.extend(
            (item, "") if isinstance(item, BinaryFile) else tuple(item)
            for item in binaries
        )
        with self._lock:
            return self._run(tagged, stats)

    def encode_binary(self, binary: BinaryFile) -> List[FunctionEncoding]:
        """Offline phase for one binary, through the cache.

        Used for query-side encodings (CVE library, ``repro-cli compare``
        style lookups) so repeated runs skip re-decompiling the query.
        """
        return [e for _image_id, e in self.run(binaries=[binary]).encodings]

    def extracted(self, binary: BinaryFile, digest: str) -> ExtractedBinary:
        """``binary``'s extracted columns through the ``trees`` cache.

        Only the cache calls hold the pipeline lock: a miss extracts
        unlocked, so cold queries against distinct binaries proceed in
        parallel (a duplicate extraction of one binary is idempotent,
        merely wasted), and the first to finish writes the entry.
        """
        min_ast_size = self.model.config.min_ast_size
        with self._lock:
            extracted = self.cache.get_trees(digest, min_ast_size)
            self._count_cache()
        if extracted is None:
            extracted = extract_binary(binary, min_ast_size)
            with self._lock:
                if self.cache.get_trees(digest, min_ast_size) is None:
                    self.cache.put_trees(digest, min_ast_size, extracted)
                    self.cache.flush()
                self._count_cache()
        return extracted

    def record_index(self, stats: PipelineStats, seconds: float,
                     n_rows: int) -> None:
        """Charge a caller's append + flush of a run's encodings to that
        run's Index stage (``stats.times.index_s`` and the stage counter),
        and record the index's row count after it."""
        stats.times.index_s += seconds
        stats.n_rows_total = n_rows
        if self.registry is not None:
            self._stage_counter("index").inc(seconds)

    # -- the staged run ----------------------------------------------------

    def _encode_entry(
        self,
        entry: _Entry,
        digest: str,
        extracted: ExtractedBinary,
        stats: PipelineStats,
    ) -> None:
        """Encode one binary's trees, cache the result, release the trees."""
        entry.encodings = encode_stage(
            self.model,
            extracted,
            batch_size=self.encode_batch_size,
            dtype=self.encode_dtype,
            block=self.encode_block,
            registry=self.registry,
        )
        entry.n_skipped_small = extracted.n_skipped_small
        self.cache.put_encodings(
            digest,
            self.model_fingerprint,
            self.model.config.min_ast_size,
            binary_name=extracted.binary_name,
            arch=extracted.arch,
            encodings=entry.encodings,
            n_skipped_small=entry.n_skipped_small,
            dtype=self.encode_dtype,
        )
        entry.extracted = None
        stats.n_encoded += 1

    def _run(self, tagged: List[Tagged], stats: PipelineStats) -> PipelineResult:
        """Every stage after Unpack; callers hold the pipeline lock."""
        cache_before = self.cache.stats.snapshot()
        min_ast_size = self.model.config.min_ast_size

        # Plan: dedup occurrences by content digest; look up cached
        # artifacts once per digest, preferring encodings over trees.
        plan: List[Tuple[str, str]] = []  # (digest, image_id) per occurrence
        entries: Dict[str, _Entry] = {}  # insertion order = first occurrence
        for binary, image_id in tagged:
            stats.n_binaries += 1
            digest = binary_digest(binary)
            plan.append((digest, image_id))
            if digest in entries:
                continue
            entry = _Entry(binary=binary)
            cached = self.cache.get_encodings(
                digest, self.model_fingerprint, min_ast_size,
                dtype=self.encode_dtype,
            )
            if cached is not None:
                entry.encodings, entry.n_skipped_small = cached
            else:
                entry.extracted = self.cache.get_trees(digest, min_ast_size)
            entries[digest] = entry
        stats.n_unique_binaries = len(entries)

        # Decompile + Preprocess (optionally across worker processes) for
        # digests with no cached artifact at all.  The stream yields in
        # input order and each binary is encoded and released as soon as
        # it arrives, so peak memory holds in-flight artifacts, not the
        # whole corpus.
        to_extract = [
            digest
            for digest, entry in entries.items()
            if entry.encodings is None and entry.extracted is None
        ]
        encode_s = 0.0
        started = time.perf_counter()
        stream = extract_stream(
            [entries[digest].binary for digest in to_extract],
            min_ast_size,
            jobs=self.jobs,
            registry=self.registry,
        )
        for digest, extracted in zip(to_extract, stream):
            stats.times.decompile_s += extracted.decompile_s
            stats.times.preprocess_s += extracted.preprocess_s
            self.cache.put_trees(digest, min_ast_size, extracted)
            encode_started = time.perf_counter()
            self._encode_entry(entries[digest], digest, extracted, stats)
            encode_s += time.perf_counter() - encode_started
        stats.times.extract_wall_s = (
            time.perf_counter() - started - encode_s
        )
        stats.n_extracted = len(to_extract)

        # Encode digests whose trees came from the cache.  Encode order is
        # a convention, not a numerical requirement: the level-batched
        # engine is bit-for-bit identical across chunkings.
        started = time.perf_counter()
        for digest, entry in entries.items():
            if entry.encodings is None:
                self._encode_entry(entry, digest, entry.extracted, stats)
        stats.times.encode_s = encode_s + (time.perf_counter() - started)
        self.cache.flush()

        # Emit per occurrence, in corpus order.
        encodings: List[Tuple[str, FunctionEncoding]] = []
        for digest, image_id in plan:
            entry = entries[digest]
            stats.n_functions += len(entry.encodings)
            stats.n_skipped_small += entry.n_skipped_small
            encodings.extend((image_id, e) for e in entry.encodings)

        stats.cache = self.cache.stats.minus(cache_before)
        self._record(stats)
        self._count_cache()
        _LOG.info(
            "pipeline: %d functions from %d binaries "
            "(%d unique, %d extracted, %d encoded; cache %d hits / %d misses)",
            stats.n_functions, stats.n_binaries, stats.n_unique_binaries,
            stats.n_extracted, stats.n_encoded,
            stats.cache.hits, stats.cache.misses,
        )
        return PipelineResult(encodings=encodings, stats=stats)

    def _record(self, stats: PipelineStats) -> None:
        """Fold one run's stats into the metrics registry (if any)."""
        if self.registry is None:
            return
        reg = self.registry
        reg.counter(
            "repro_pipeline_runs_total", "Completed pipeline runs"
        ).inc()
        reg.counter(
            "repro_pipeline_functions_total",
            "Function encodings produced by pipeline runs",
        ).inc(stats.n_functions)
        reg.counter(
            "repro_pipeline_binaries_total",
            "Binary occurrences fed through the pipeline",
        ).inc(stats.n_binaries)
        stage_seconds = {
            "unpack": stats.times.unpack_s,
            "decompile": stats.times.decompile_s,
            "preprocess": stats.times.preprocess_s,
            "encode": stats.times.encode_s,
            "index": stats.times.index_s,
        }
        for stage, seconds in stage_seconds.items():
            self._stage_counter(stage).inc(seconds)

    def _count_cache(self) -> None:
        """Fold the cache lookups since the last call into the by-kind
        counters.  The pipeline follows every lookup with this call under
        its lock, so the counters sum to the cache's lifetime totals."""
        if self.registry is None:
            return
        reg = self.registry
        now = self.cache.stats.snapshot()
        delta = now.minus(self._counted)
        self._counted = now
        for kind, hits, misses in (
            ("tree", delta.tree_hits, delta.tree_misses),
            ("encoding", delta.encoding_hits, delta.encoding_misses),
        ):
            reg.counter(
                "repro_pipeline_cache_hits_total",
                "Artifact-cache hits by kind", kind=kind,
            ).inc(hits)
            reg.counter(
                "repro_pipeline_cache_misses_total",
                "Artifact-cache misses by kind", kind=kind,
            ).inc(misses)

    def _stage_counter(self, stage: str):
        return self.registry.counter(
            "repro_pipeline_stage_seconds_total",
            "Seconds spent per pipeline stage", stage=stage,
        )
