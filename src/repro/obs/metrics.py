"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

:class:`MetricsRegistry` is the one sink every instrumented subsystem
reports into -- the engine owns a registry and threads it through the
micro-batcher, the ANN index, the corpus pipeline and the HTTP server,
so a single ``GET /metrics`` scrape (or ``registry.snapshot()``) sees
the whole serving path.

Design constraints, in order:

* **stdlib-only** -- no prometheus_client; the text exposition format is
  produced directly (:meth:`MetricsRegistry.to_prometheus`);
* **cheap on the hot path** -- one small lock per metric child; label
  lookup is a dict probe on a sorted-tuple key; nothing allocates numpy
  arrays;
* **bounded memory** -- histograms are fixed-bucket (no reservoir), so a
  million observations cost the same bytes as ten.

Every family is declared once, in :data:`METRICS`; a call site names
a family and its label values, nothing more.  The registry refuses
(``ValueError``) an undeclared name, a declared name asked for as
another kind, and a label set other than the declared one (checked when
a child is first created).  Quantiles (p50/p95/p99) interpolate inside
the winning bucket, clamped to the observed min/max: deterministic, and
exact enough for latency dashboards.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "METRICS",
    "Metric",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "FRACTION_BUCKETS",
]

#: Seconds-scale latency buckets (sub-ms encode calls up to slow sweeps).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Power-of-four count buckets (batch widths, candidate-set sizes).
SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384, 65536, 262144,
)

#: Buckets for ratios in [0, 1] (e.g. rerank fraction).
FRACTION_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0,
)


class Metric(NamedTuple):
    """One family.  ``stat`` names the ``EngineStats`` field it backs:
    ``polled``, the engine sets the gauge from ``stats()`` at each
    scrape; else ``stats()`` reads it back, summed over labels."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: Tuple[str, ...] = ()
    buckets: Tuple[float, ...] = ()  # histograms only
    stat: Optional[str] = None
    polled: bool = False


_LAT, _SIZE, _FRAC = DEFAULT_LATENCY_BUCKETS, SIZE_BUCKETS, FRACTION_BUCKETS

#: Every metric family, by name (the README's metric table renders it).
METRICS: Dict[str, Metric] = {m.name: m for m in (
    # HTTP server
    Metric("repro_requests_total", "counter", "HTTP requests served",
           ("endpoint", "method", "status")),
    Metric("repro_request_errors_total", "counter",
           "HTTP requests answered with status >= 400", ("endpoint",)),
    Metric("repro_request_seconds", "histogram",
           "HTTP request wall time per endpoint", ("endpoint",), _LAT),
    Metric("repro_requests_shed_total", "counter",
           "Requests shed by admission control (HTTP 503)", stat="n_shed"),
    # engine query path
    Metric("repro_queries_total", "counter",
           "Queries answered by the engine", stat="n_queries"),
    Metric("repro_query_batches_total", "counter",
           "query_batch calls answered", stat="n_query_batches"),
    Metric("repro_query_encodes_total", "counter",
           "Query-side function encodes (a memoized repeat does not "
           "encode)", stat="n_query_encodes"),
    Metric("repro_query_seconds", "histogram",
           "Wall time of one engine.query call", buckets=_LAT),
    Metric("repro_query_batch_seconds", "histogram",
           "Wall time of one engine.query_batch call", buckets=_LAT),
    Metric("repro_request_timeouts_total", "counter",
           "Requests abandoned at their deadline", stat="n_timeouts"),
    Metric("repro_slow_queries_total", "counter",
           "Queries slower than EngineConfig.slow_query_ms"),
    Metric("repro_index_rebuilds_total", "counter",
           "ANN index (re)constructions over the store"),
    # micro-batcher
    Metric("repro_microbatch_size", "histogram",
           "Items per micro-batch (_count is the batches run, _sum the "
           "items coalesced)", buckets=_SIZE),
    Metric("repro_microbatch_fill", "histogram",
           "Micro-batch fill ratio (items / max_batch_size)", buckets=_FRAC),
    Metric("repro_microbatch_wait_seconds", "histogram",
           "Submit-to-publish coalescing wait per item", buckets=_LAT),
    # level-batched encoder
    Metric("repro_encode_trees_total", "counter",
           "Trees encoded by the level-batched inference path",
           stat="n_encoded_trees"),
    Metric("repro_encode_block_rows", "gauge",
           "GEMM row-block size the encoder is using",
           stat="encode_block_rows"),
    Metric("repro_encode_level_seconds", "histogram",
           "Seconds per evaluated Tree-LSTM level", buckets=_LAT),
    Metric("repro_encode_batch_fill", "histogram",
           "Scheduler chunk fill ratio (trees per chunk / batch size)",
           buckets=_FRAC),
    # ANN index
    Metric("repro_ann_candidates", "histogram",
           "Rows scored per query (_count is the queries answered)",
           buckets=_SIZE),
    Metric("repro_ann_rerank_fraction", "histogram",
           "Fraction of the corpus scored per query (the exact sweep's "
           "rings, or ivf-pq's candidate list)", buckets=_FRAC),
    Metric("repro_ann_sweep_seconds", "histogram",
           "Blockwise corpus sweep + rerank wall time per batch",
           buckets=_LAT),
    Metric("repro_ann_probed_fraction", "histogram",
           "ivf-pq: fraction of the corpus in the inverted lists probed "
           "per query", buckets=_FRAC),
    Metric("repro_ann_swept_fraction", "histogram",
           "ivf-pq: fraction of the corpus swept by the quantized tier per "
           "query", buckets=_FRAC),
    Metric("repro_ann_rerank_depth", "histogram",
           "ivf-pq: candidate rows surviving to the float32 exact rerank "
           "per query", buckets=_SIZE),
    Metric("repro_ann_fallback_total", "counter",
           "ANN construction failures degraded to exact sweeps"),
    # offline pipeline
    Metric("repro_pipeline_runs_total", "counter", "Completed pipeline runs"),
    Metric("repro_pipeline_functions_total", "counter",
           "Function encodings produced by pipeline runs"),
    Metric("repro_pipeline_binaries_total", "counter",
           "Binary occurrences fed through the pipeline"),
    Metric("repro_pipeline_cache_hits_total", "counter",
           "Artifact-cache hits by kind (tree or encoding), each lookup "
           "counted once", ("kind",),
           stat="cache_hits"),
    Metric("repro_pipeline_cache_misses_total", "counter",
           "Artifact-cache misses by kind (tree or encoding), each lookup "
           "counted once", ("kind",),
           stat="cache_misses"),
    Metric("repro_pipeline_stage_seconds_total", "counter",
           "Seconds spent per pipeline stage (unpack, decompile, "
           "preprocess, encode, index)", ("stage",)),
    Metric("repro_worker_restarts_total", "counter",
           "Extract workers replaced after dying mid-run"),
    Metric("repro_worker_task_retries_total", "counter",
           "Extract tasks requeued after a worker fault"),
    # shard-parallel serve pool
    Metric("repro_serve_worker_restarts_total", "counter",
           "Serve-pool workers replaced after dying mid-sweep"),
    Metric("repro_serve_task_retries_total", "counter",
           "Sweep tasks re-dispatched after a worker fault"),
    Metric("repro_serve_worker_queries_total", "counter",
           "Query sweeps completed per serve-pool worker", ("worker",)),
    Metric("repro_serve_worker_sweep_seconds", "histogram",
           "Per-task shard-range sweep wall time", ("worker",), _LAT),
    Metric("repro_serve_pool_queries_total", "counter",
           "Queries answered by the shard-parallel pool"),
    Metric("repro_serve_pool_sweep_seconds", "histogram",
           "End-to-end pooled sweep+merge wall time per batch", buckets=_LAT),
    # engine state, set from one stats() snapshot at each scrape
    Metric("repro_model_loaded", "gauge", "1 when a model is resident",
           stat="model_loaded", polled=True),
    Metric("repro_index_rows", "gauge", "Rows in the embedding index",
           stat="index_rows", polled=True),
    Metric("repro_index_shards", "gauge", "Shards in the embedding index",
           stat="index_shards", polled=True),
    Metric("repro_index_quarantined_shards", "gauge",
           "Shards quarantined by crash recovery",
           stat="index_quarantined_shards", polled=True),
    Metric("repro_index_vector_bytes", "gauge",
           "Bytes of vector data in the index",
           stat="index_vector_bytes", polled=True),
    Metric("repro_index_resident_bytes", "gauge",
           "Index bytes resident in process memory",
           stat="index_resident_bytes", polled=True),
    Metric("repro_engine_degraded", "gauge",
           "1 when serving in degraded mode (quarantined shards, ANN "
           "fallback, ...)", stat="degraded", polled=True),
)}


def declared(name: str) -> Metric:
    """The declaration of ``name``; ``ValueError`` when there is none."""
    metric = METRICS.get(name)
    if metric is None:
        raise ValueError(f"metric {name!r} is not declared in METRICS")
    return metric


LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(items: LabelItems, extra: Optional[Tuple[str, str]] = None
                   ) -> str:
    pairs = list(items)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _render_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (set to the latest observation)."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with quantile summaries.

    ``buckets`` are inclusive upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches the rest.  Quantiles interpolate
    linearly inside the winning bucket and clamp to the observed
    min/max, so p50/p95/p99 are deterministic functions of the counts.
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"buckets must strictly increase: {bounds}")
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect by hand: the bounds tuple is tiny and this avoids
        # importing bisect's key-handling on every observation
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def totals(self) -> Tuple[int, float, float]:
        """``(count, sum, max)`` in one locked read (max 0.0 when empty)."""
        with self._lock:
            return self._count, self._sum, self._max if self._count else 0.0

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        with self._lock:
            counts = list(self._counts)
        total = 0
        out: List[Tuple[float, int]] = []
        for bound, count in zip(self.bounds + (math.inf,), counts):
            total += count
            out.append((bound, total))
        return out

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            count = self._count
            lo, hi = self._min, self._max
        if count == 0:
            return 0.0
        rank = q * count
        cumulative = 0
        lower = 0.0
        for bound, bucket_count in zip(self.bounds + (math.inf,), counts):
            upper = bound
            if cumulative + bucket_count >= rank and bucket_count:
                if math.isinf(upper):
                    upper = hi  # the +Inf bucket ends at the observed max
                fraction = (
                    (rank - cumulative) / bucket_count if bucket_count else 0.0
                )
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, lo), hi)
            cumulative += bucket_count
            lower = bound
        return hi

    def summary(self) -> Dict[str, float]:
        count, total, _max = self.totals()
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Thread-safe named metrics with Prometheus text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: name -> label key -> child, families in first-use order
        self._families: Dict[str, Dict[LabelItems, object]] = {}

    # -- registration ------------------------------------------------------

    def _child(self, name: str, kind: str, labels: Dict[str, str]):
        key = _label_key(labels)
        with self._lock:
            children = self._families.get(name)
            child = children.get(key) if children else None
            if child is None:
                metric = declared(name)
                if metric.kind != kind:
                    raise ValueError(
                        f"metric {name!r} is a {metric.kind}, not a {kind}"
                    )
                if sorted(labels) != sorted(metric.labels):
                    raise ValueError(
                        f"metric {name!r} takes labels {metric.labels}, "
                        f"not {tuple(sorted(labels))}"
                    )
                child = (Histogram(metric.buckets) if kind == "histogram"
                         else Counter() if kind == "counter" else Gauge())
                self._families.setdefault(name, {})[key] = child
            elif child.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {child.kind}, not a {kind}"
                )
        return child

    def counter(self, name: str, **labels) -> Counter:
        return self._child(name, "counter", labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._child(name, "gauge", labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._child(name, "histogram", labels)

    # -- reads -------------------------------------------------------------

    def get(self, name: str, **labels):
        """The existing child for ``(name, labels)``, or ``None``."""
        declared(name)
        with self._lock:
            return self._families.get(name, {}).get(_label_key(labels))

    def value(self, name: str, **labels) -> float:
        """Counter/gauge value; with no labels, the sum over all children.

        Declared metrics not yet used read as 0.0, so stats views stay
        total-ordered with an engine that has not served traffic yet.
        """
        declared(name)
        with self._lock:
            children = self._families.get(name, {})
            if labels:
                child = children.get(_label_key(labels))
                found: Iterable = [] if child is None else [child]
            else:
                found = list(children.values())
        total = 0.0
        for child in found:
            if isinstance(child, Histogram):
                total += child.count
            else:
                total += child.value
        return total

    def _families_now(self) -> List[Tuple[Metric, List]]:
        """Each used family's declaration and ``(key, child)`` pairs."""
        with self._lock:
            return [(METRICS[name], list(children.items()))
                    for name, children in self._families.items()]

    def snapshot(self) -> Dict[str, Dict]:
        """A JSON-shaped point-in-time dump of every metric."""
        out: Dict[str, Dict] = {}
        for metric, children in self._families_now():
            series = []
            for key, child in children:
                entry: Dict = {"labels": dict(key)}
                if isinstance(child, Histogram):
                    entry.update(child.summary())
                else:
                    entry["value"] = child.value
                series.append(entry)
            out[metric.name] = {
                "kind": metric.kind, "help": metric.help, "series": series,
            }
        return out

    # -- exposition --------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for metric, children in self._families_now():
            name = metric.name
            lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for key, child in children:
                if isinstance(child, Histogram):
                    for bound, cumulative in child.cumulative():
                        labels = _render_labels(
                            key, extra=("le", _render_value(bound))
                        )
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    labels = _render_labels(key)
                    lines.append(
                        f"{name}_sum{labels} {_render_value(child.sum)}"
                    )
                    lines.append(f"{name}_count{labels} {child.count}")
                else:
                    labels = _render_labels(key)
                    lines.append(
                        f"{name}{labels} {_render_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
