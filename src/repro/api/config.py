"""The one configuration object behind every engine consumer.

Each :class:`EngineConfig` field is declared once -- name, type, default
and, as field metadata, only what those do not imply (help sentence, CLI
flag when not ``--<name-with-dashes>``, ``min`` / ``choices``); range
checks, ``repro-cli`` flags (:func:`add_config_flags`) and the README
table are derived from it.  Besides the dataclass itself, a config loads
two ways:

* :meth:`EngineConfig.from_dict` / :meth:`to_dict` -- JSON-shaped, for
  the HTTP server and ``/v1/stats``;
* :meth:`EngineConfig.from_args` -- an argparse namespace, shared by all
  ``repro-cli`` subcommands.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Sequence

from repro.api.errors import BadRequestError
from repro.core.model import DEFAULT_ENCODE_BATCH_SIZE, DEFAULT_ENCODE_DTYPE
from repro.index.ann import known_backends

_DTYPES = ("float32", "float64")


def _knob(default, help: str, **bounds):
    """One field: ``help`` sentence, optional ``flag``/``min``/``choices``
    (``zero`` names what a 0 means, for the range-error message)."""
    return field(default=default, metadata=dict(bounds, help=help))


@dataclass
class EngineConfig:
    """Everything an :class:`~repro.api.engine.AsteriaEngine` needs."""

    model_path: Optional[str] = _knob(
        None, "model checkpoint, loaded on first use", flag="--model")
    index_root: Optional[str] = _knob(
        None, "durable embedding index directory, opened if it exists and "
        "created otherwise (none: in-memory)", flag="--index")
    cache_dir: Optional[str] = _knob(
        None, "persistent artifact cache: warm re-runs skip decompile + "
        "encode (none: in-memory)")
    jobs: int = _knob(
        1, "worker processes for the decompile/preprocess stages (results "
        "are identical to 1)", min=1)
    encode_batch_size: int = _knob(
        DEFAULT_ENCODE_BATCH_SIZE, "trees per level-batched encode pass",
        flag="--batch-size", min=1)
    encode_dtype: str = _knob(
        DEFAULT_ENCODE_DTYPE, "batched-encoder inference dtype: float64 is "
        "the bit-exact reference, float32 the ~2x fast path with rankings "
        "preserved", choices=_DTYPES)
    encode_block: int = _knob(
        0, "GEMM row-block size for the batched encoder; 0 auto-tunes via "
        "a one-time micro-probe", min=0, zero="auto")
    shard_size: int = _knob(1024, "index rows per vector shard", min=1)
    store_dtype: str = _knob(
        "float32", "vector dtype of newly created indexes (float32 halves "
        "bytes-per-row with scores unchanged within ~1e-6; float64 keeps "
        "encoder-exact vectors)", flag="--dtype", choices=_DTYPES)
    backend: str = _knob(
        "exact", "ANN backend: exact (full sweep) or ivf-pq (tiered: IVF "
        "coarse probe + int8 quantized sweep + exact rerank)")
    ann_nprobe: int = _knob(
        8, "ivf-pq: coarse partitions swept per query (the recall-vs-speed "
        "dial)", min=1)
    ann_rerank: int = _knob(
        8, "ivf-pq: exact-rerank oversampling -- k * rerank candidates "
        "survive the quantized sweep", min=1)
    ann_lists: int = _knob(
        0, "ivf-pq: number of coarse partitions (0 = auto, ~sqrt(corpus "
        "rows))", min=0, zero="auto")
    seed: int = _knob(0, "ivf-pq k-means seed")
    micro_batch_size: int = _knob(
        DEFAULT_ENCODE_BATCH_SIZE, "max concurrent query encodes coalesced "
        "into one batched GEMM call (1 disables micro-batching)",
        flag="--micro-batch", min=1)
    micro_batch_wait_ms: float = _knob(
        2.0, "most a batch leader waits for concurrent queries already "
        "on their way to the batcher (a lone query never waits)", min=0)
    slow_query_ms: Optional[float] = _knob(
        None, "log the full span tree of queries slower than this many "
        "milliseconds (none: no slow-query log)", min=0)
    request_timeout_ms: Optional[float] = _knob(
        None, "per-request deadline enforced through the micro-batcher and "
        "the corpus sweep; queries past it answer 504 (none: no deadline)")
    max_inflight: int = _knob(
        64, "bound on concurrently admitted heavy requests; excess load is "
        "shed with HTTP 503 + Retry-After", min=1)
    drain_timeout_ms: float = _knob(
        5000.0, "how long /v1/shutdown waits for in-flight requests to "
        "drain before stopping anyway", min=0)
    faults: str = _knob(
        "", "failpoint spec for chaos testing, e.g. "
        "'store.flush.pre_rename=kill' (see repro.faults)")

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            low, choices = f.metadata.get("min"), f.metadata.get("choices")
            if low is not None and value is not None and value < low:
                zero = f.metadata.get("zero")
                raise BadRequestError(
                    f"{f.name} must be >= {low}"
                    f"{f' (0 = {zero})' if zero else ''}, got {value}"
                )
            if choices and value not in choices:
                raise BadRequestError(
                    f"unknown {f.name} {value!r} "
                    f"(choose from {', '.join(choices)})"
                )
        if self.backend not in known_backends():
            raise BadRequestError(
                f"unknown backend {self.backend!r} "
                f"(choose from {', '.join(known_backends())})"
            )
        if self.request_timeout_ms is not None and self.request_timeout_ms <= 0:
            raise BadRequestError("request_timeout_ms must be > 0 or null")

    # -- dict / args loading -----------------------------------------------

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
    def from_args(cls, args, **overrides) -> "EngineConfig":
        """Adapt an argparse namespace; every subcommand shares this.

        Only destinations the subcommand actually defines (and that were
        not left at ``None``) are picked up; ``overrides`` win last, so a
        subcommand can redirect e.g. ``--output`` into ``index_root``.
        """
        data: Dict = {}
        for f in fields(cls):
            value = getattr(args, _flag(f)[2:].replace("-", "_"), None)
            if value is not None:
                data[f.name] = value
        data.update(overrides)
        return cls.from_dict(data)


def _flag(f) -> str:
    return f.metadata.get("flag") or "--" + f.name.replace("_", "-")


def add_config_flags(parser, *names: str, required: Sequence[str] = ()) -> None:
    """Give ``parser`` the flag of each named :class:`EngineConfig` field.

    Spelling, type, ``choices`` and help (the default appended) come from
    the field; argparse's own default is ``None`` = "not given", which
    :meth:`EngineConfig.from_args` skips.  ``min=1`` is checked on parse.
    """
    known = {f.name: f for f in fields(EngineConfig)}
    for name in names:
        f = known[name]

        def parse(raw: str, f=f):
            try:
                value = _coerce(f, raw)
            except BadRequestError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from exc
            if f.metadata.get("min") == 1 and value < 1:
                raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
            return value

        default = "none" if f.default in (None, "") else f.default
        parser.add_argument(
            _flag(f), type=parse, choices=f.metadata.get("choices"),
            default=None, required=name in required, help=f.metadata["help"]
            + ("" if name in required else f" (default: {default})"),
        )


def _coerce(f, raw: str):
    """Parse one command-line string to the field's type."""
    kind = str(f.type)
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
    return raw
