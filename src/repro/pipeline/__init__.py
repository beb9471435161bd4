"""Staged corpus pipeline: extract -> encode -> index, cached and parallel.

The one implementation of the paper's offline phase.  See
:mod:`repro.pipeline.corpus` for the orchestrator,
:mod:`repro.pipeline.stages` for the shared stage functions,
:mod:`repro.pipeline.cache` for the content-addressed artifact cache and
:mod:`repro.pipeline.workers` for the extract worker pool.
"""

from repro.pipeline.cache import ArtifactCache, artifact_key, binary_digest
from repro.pipeline.corpus import (
    CacheStats,
    CorpusPipeline,
    PipelineResult,
    PipelineStats,
    StageTimes,
)
from repro.pipeline.stages import (
    ExtractedBinary,
    decompile_one,
    decompile_stage,
    encode_stage,
    extract_binary,
    preprocess_one,
    unpack_stage,
)
from repro.pipeline.workers import (
    WorkerCrashError,
    WorkerTaskError,
    extract_all,
    extract_stream,
)

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "CorpusPipeline",
    "ExtractedBinary",
    "PipelineResult",
    "PipelineStats",
    "StageTimes",
    "WorkerCrashError",
    "WorkerTaskError",
    "artifact_key",
    "binary_digest",
    "decompile_one",
    "decompile_stage",
    "encode_stage",
    "extract_all",
    "extract_binary",
    "extract_stream",
    "preprocess_one",
    "unpack_stage",
]
