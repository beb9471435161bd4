"""The one configuration object behind every engine consumer.

:class:`EngineConfig` replaces the per-subcommand ``--cache-dir`` /
``--jobs`` / ``--batch-size`` plumbing (and the ad hoc keyword threading
inside ``VulnerabilitySearch`` / ``SearchService``) with a single typed
value that can be built four ways:

* directly, as a dataclass;
* :meth:`EngineConfig.from_dict` / :meth:`to_dict` -- JSON-shaped, for
  config files (:meth:`from_file`) and the HTTP server;
* :meth:`EngineConfig.from_env` -- ``REPRO_*`` environment variables;
* :meth:`EngineConfig.from_args` -- an argparse namespace, shared by all
  ``repro-cli`` subcommands.

Later sources override earlier ones field-by-field, so
``EngineConfig.from_env().merged(jobs=4)`` reads naturally.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Optional

from repro.api.errors import BadRequestError
from repro.core.model import DEFAULT_ENCODE_BATCH_SIZE, DEFAULT_ENCODE_DTYPE
from repro.index.ann import known_backends

_DTYPES = ("float32", "float64")

#: argparse destination -> config field, shared by every subcommand.
_ARG_FIELDS = {
    "model": "model_path",
    "index": "index_root",
    "cache_dir": "cache_dir",
    "jobs": "jobs",
    "batch_size": "encode_batch_size",
    "encode_dtype": "encode_dtype",
    "encode_block": "encode_block",
    "shard_size": "shard_size",
    "dtype": "store_dtype",
    "backend": "backend",
    "ann_nprobe": "ann_nprobe",
    "ann_rerank": "ann_rerank",
    "ann_lists": "ann_lists",
    "threshold": "threshold",
    "top_k": "top_k",
    "seed": "seed",
    "request_timeout_ms": "request_timeout_ms",
    "max_inflight": "max_inflight",
    "drain_timeout_ms": "drain_timeout_ms",
    "serve_workers": "serve_workers",
    "faults": "faults",
}


@dataclass
class EngineConfig:
    """Everything an :class:`~repro.api.engine.AsteriaEngine` needs.

    ``model_path``/``index_root``/``cache_dir`` of ``None`` mean "fresh
    in-memory" (no checkpoint yet / ephemeral index / ephemeral cache).
    ``micro_batch_size`` caps how many concurrent query encodes the
    serving micro-batcher coalesces into one level-batched GEMM call
    (1 disables coalescing); ``micro_batch_wait_ms`` is the accumulation
    window a batch leader grants late arrivals.  ``slow_query_ms`` of
    ``None`` disables the slow-query log; any other value is the wall
    time above which a query's full span tree is logged.  ``store_dtype`` is the
    vector dtype of newly created embedding indexes (the default
    float32 halves bytes-per-row with no measurable effect on the
    calibrated scores; pick float64 to keep encoder-exact vectors).
    """

    model_path: Optional[str] = None
    index_root: Optional[str] = None
    cache_dir: Optional[str] = None
    jobs: int = 1
    encode_batch_size: int = DEFAULT_ENCODE_BATCH_SIZE
    #: Inference dtype of the batched encoder: "float64" is the
    #: bit-exact reference, "float32" the ~2x fast path (rankings
    #: preserved; see README "Encoder performance").
    encode_dtype: str = DEFAULT_ENCODE_DTYPE
    #: GEMM row-block size for the batched encoder; 0 auto-tunes via a
    #: one-time micro-probe (``REPRO_ENCODE_BLOCK`` also overrides).
    encode_block: int = 0
    shard_size: int = 1024
    store_dtype: str = "float32"
    backend: str = "exact"
    #: Tiered-index (``backend="ivf-pq"``) knobs: ``ann_nprobe`` coarse
    #: partitions swept per query (the recall-vs-speed dial),
    #: ``ann_rerank`` the exact-rerank oversampling (k * rerank
    #: candidates survive the quantized sweep), ``ann_lists`` the number
    #: of coarse partitions (0 = auto, ~sqrt(corpus rows)).
    ann_nprobe: int = 8
    ann_rerank: int = 8
    ann_lists: int = 0
    calibrate: bool = True
    threshold: float = 0.84
    top_k: int = 10
    seed: int = 0
    micro_batch_size: int = DEFAULT_ENCODE_BATCH_SIZE
    micro_batch_wait_ms: float = 2.0
    slow_query_ms: Optional[float] = None
    #: Per-request deadline enforced through the micro-batcher and the
    #: corpus sweep; ``None`` disables deadlines.
    request_timeout_ms: Optional[float] = None
    #: Bound on concurrently admitted heavy requests; excess load is
    #: shed with HTTP 503 + ``Retry-After`` instead of queueing without
    #: limit.
    max_inflight: int = 64
    #: How long ``/v1/shutdown`` waits for in-flight requests to drain
    #: before stopping anyway.
    drain_timeout_ms: float = 5000.0
    #: Shard-parallel serving: number of sweep worker processes.  1 (the
    #: default) keeps the in-process sweep path; >1 requires a durable
    #: ``index_root`` (workers mmap the store read-only by path).
    serve_workers: int = 1
    #: Failpoint spec (see :mod:`repro.faults`), e.g.
    #: ``"store.flush.pre_rename=kill"``.  Empty string = no faults.
    #: Also read from ``REPRO_FAULTS`` by the faults module itself.
    faults: str = ""

    def __post_init__(self):
        for name in ("jobs", "encode_batch_size", "shard_size",
                     "micro_batch_size", "serve_workers",
                     "ann_nprobe", "ann_rerank"):
            if int(getattr(self, name)) < 1:
                raise BadRequestError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if int(self.ann_lists) < 0:
            raise BadRequestError(
                f"ann_lists must be >= 0 (0 = auto), got {self.ann_lists}"
            )
        if self.backend not in known_backends():
            raise BadRequestError(
                f"unknown backend {self.backend!r} "
                f"(choose from {', '.join(known_backends())})"
            )
        if self.store_dtype not in _DTYPES:
            raise BadRequestError(
                f"unknown store_dtype {self.store_dtype!r} "
                f"(choose from {', '.join(_DTYPES)})"
            )
        if self.encode_dtype not in _DTYPES:
            raise BadRequestError(
                f"unknown encode_dtype {self.encode_dtype!r} "
                f"(choose from {', '.join(_DTYPES)})"
            )
        if int(self.encode_block) < 0:
            raise BadRequestError(
                f"encode_block must be >= 0 (0 = auto), "
                f"got {self.encode_block}"
            )
        if not math.isfinite(self.threshold):
            raise BadRequestError(
                f"threshold must be a finite number, got {self.threshold}"
            )
        if self.micro_batch_wait_ms < 0:
            raise BadRequestError("micro_batch_wait_ms must be >= 0")
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise BadRequestError("slow_query_ms must be >= 0 or null")
        if self.request_timeout_ms is not None and self.request_timeout_ms <= 0:
            raise BadRequestError("request_timeout_ms must be > 0 or null")
        if self.max_inflight < 1:
            raise BadRequestError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.drain_timeout_ms < 0:
            raise BadRequestError("drain_timeout_ms must be >= 0")

    # -- dict / file / env / args loading ----------------------------------

    def to_dict(self) -> Dict:
        """JSON-serialisable field dict (the inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "EngineConfig":
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise BadRequestError(
                f"unknown EngineConfig key(s): {', '.join(unknown)}"
            )
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"bad EngineConfig: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "EngineConfig":
        path = Path(path)
        if not path.exists():
            raise BadRequestError(f"no config file at {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise BadRequestError(f"config file {path} is not JSON: {exc}")
        if not isinstance(data, dict):
            raise BadRequestError(f"config file {path} must hold an object")
        return cls.from_dict(data)

    @classmethod
    def from_env(cls, environ=None, prefix: str = "REPRO_") -> "EngineConfig":
        """Read ``<prefix><FIELD>`` variables (e.g. ``REPRO_MODEL_PATH``)."""
        environ = os.environ if environ is None else environ
        data: Dict = {}
        for f in fields(cls):
            raw = environ.get(prefix + f.name.upper())
            if raw is None:
                continue
            data[f.name] = _coerce(f, raw)
        return cls.from_dict(data)

    @classmethod
    def from_args(cls, args, **overrides) -> "EngineConfig":
        """Adapt an argparse namespace; every subcommand shares this.

        Only destinations the subcommand actually defines (and that were
        not left at ``None``) are picked up; ``overrides`` win last, so a
        subcommand can redirect e.g. ``--output`` into ``index_root``.
        """
        data: Dict = {}
        for dest, field_name in _ARG_FIELDS.items():
            value = getattr(args, dest, None)
            if value is not None:
                data[field_name] = value
        data.update(overrides)
        return cls.from_dict(data)

    def merged(self, **overrides) -> "EngineConfig":
        """A copy with ``overrides`` applied (validation re-runs)."""
        data = self.to_dict()
        data.update(overrides)
        return self.from_dict(data)


def _coerce(f, raw: str):
    """Parse one env-var string to the field's annotated type."""
    kind = f.type if isinstance(f.type, str) else getattr(
        f.type, "__name__", str(f.type)
    )
    if "int" in kind:
        try:
            return int(raw)
        except ValueError:
            raise BadRequestError(f"{f.name} expects an integer, got {raw!r}")
    if "float" in kind:
        try:
            return float(raw)
        except ValueError:
            raise BadRequestError(f"{f.name} expects a number, got {raw!r}")
    if "bool" in kind:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise BadRequestError(f"{f.name} expects a boolean, got {raw!r}")
    return raw
