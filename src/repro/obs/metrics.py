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

Metric children are addressed by ``(name, labels)``; the first
registration of a name fixes its kind, help text and (for histograms)
bucket layout -- re-registering with a conflicting kind or buckets
raises, mismatched help is ignored (first writer wins).  Quantiles
(p50/p95/p99) are estimated by linear interpolation inside the winning
bucket, clamped to the observed min/max, which is exact enough for
latency dashboards and entirely deterministic.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
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


class _Family:
    """All children of one metric name (kind/help/buckets fixed)."""

    def __init__(self, name: str, kind: str, help_text: str,
                 buckets: Optional[Tuple[float, ...]] = None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.children: Dict[LabelItems, object] = {}


class MetricsRegistry:
    """Thread-safe named metrics with Prometheus text exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    # -- registration ------------------------------------------------------

    def _child(self, name: str, kind: str, help_text: str,
               labels: Dict[str, str],
               buckets: Optional[Tuple[float, ...]] = None):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {kind}"
                )
            elif kind == "histogram" and buckets is not None \
                    and family.buckets != buckets:
                raise ValueError(
                    f"histogram {name!r} already registered with buckets "
                    f"{family.buckets}, not {buckets}"
                )
            child = family.children.get(key)
            if child is None:
                if kind == "counter":
                    child = Counter()
                elif kind == "gauge":
                    child = Gauge()
                else:
                    child = Histogram(family.buckets
                                      or DEFAULT_LATENCY_BUCKETS)
                family.children[key] = child
            return child

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        return self._child(name, "counter", help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        return self._child(name, "gauge", help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._child(
            name, "histogram", help_text, labels,
            buckets=tuple(float(b) for b in buckets),
        )

    # -- reads -------------------------------------------------------------

    def get(self, name: str, **labels):
        """The existing child for ``(name, labels)``, or ``None``."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            return family.children.get(_label_key(labels))

    def value(self, name: str, **labels) -> float:
        """Counter/gauge value; with no labels, the sum over all children.

        Missing metrics read as 0.0, so stats views stay total-ordered
        with an engine that has not served traffic yet.
        """
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0.0
            if labels:
                child = family.children.get(_label_key(labels))
                children: Iterable = [] if child is None else [child]
            else:
                children = list(family.children.values())
        total = 0.0
        for child in children:
            if isinstance(child, Histogram):
                total += child.count
            else:
                total += child.value
        return total

    def names(self) -> List[str]:
        with self._lock:
            return list(self._families)

    def snapshot(self) -> Dict[str, Dict]:
        """A JSON-shaped point-in-time dump of every metric."""
        with self._lock:
            families = [
                (f.name, f.kind, f.help, list(f.children.items()))
                for f in self._families.values()
            ]
        out: Dict[str, Dict] = {}
        for name, kind, help_text, children in families:
            series = []
            for key, child in children:
                entry: Dict = {"labels": dict(key)}
                if isinstance(child, Histogram):
                    entry.update(child.summary())
                else:
                    entry["value"] = child.value
                series.append(entry)
            out[name] = {"kind": kind, "help": help_text, "series": series}
        return out

    # -- exposition --------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            families = [
                (f.name, f.kind, f.help, list(f.children.items()))
                for f in self._families.values()
            ]
        lines: List[str] = []
        for name, kind, help_text, children in families:
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
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
