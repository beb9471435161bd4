"""Unified Asteria API: the engine facade, its config, and the server.

This package is the single construction path for the repo's
model + cache + index + pipeline stack.  Everything a consumer needs::

    from repro.api import AsteriaEngine, EngineConfig

    engine = AsteriaEngine(EngineConfig(model_path="asteria.npz"))
    stats = engine.ingest(corpus_images=8, corpus_seed=0)  # PipelineStats
    result = engine.query(cve_id="CVE-2016-2105", top_k=10)

An ingest is one pipeline run, and it returns that run's
:class:`~repro.pipeline.corpus.PipelineStats`.

See :mod:`repro.api.engine` for the request/response dataclasses,
:mod:`repro.api.server` for the HTTP serving layer (``repro-cli serve``)
and :mod:`repro.api.batching` for the query micro-batcher.
"""

from repro.api.batching import MicroBatcher
from repro.api.config import EngineConfig
from repro.api.engine import (
    AsteriaEngine,
    CompareRequest,
    CompareResult,
    EncodeRequest,
    EncodeResult,
    EngineStats,
    IngestRequest,
    QueryRequest,
    QueryResult,
    TrainRequest,
    TrainResult,
    train_model,
)
from repro.api.errors import (
    BadRequestError,
    EngineError,
    IndexStoreError,
    InputNotFoundError,
    ModelNotFoundError,
)
from repro.api.server import EngineServer, serve

__all__ = [
    "AsteriaEngine",
    "BadRequestError",
    "CompareRequest",
    "CompareResult",
    "EncodeRequest",
    "EncodeResult",
    "EngineConfig",
    "EngineError",
    "EngineServer",
    "EngineStats",
    "IndexStoreError",
    "IngestRequest",
    "InputNotFoundError",
    "MicroBatcher",
    "ModelNotFoundError",
    "QueryRequest",
    "QueryResult",
    "TrainRequest",
    "TrainResult",
    "serve",
    "train_model",
]
