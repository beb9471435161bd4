"""Tests for the observability layer (`repro.obs`) and logging helpers.

Covers the metrics registry under thread contention, the fixed-bucket
histogram math, Prometheus text exposition, span nesting/request-id
inheritance, and the JSON/text log formats with request-id stamping.
"""

import dataclasses
import io
import json
import logging
import math
import re
import sys
import threading
from pathlib import Path

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
    current_request_id,
    current_span,
    new_request_id,
    trace,
)
from repro.api.types import EngineStats
from repro.obs.metrics import METRICS
from repro.utils.logging import (
    JsonFormatter,
    _level_from_env,
    _RequestIdFilter,
    _TextFormatter,
)


class TestCounterAndGauge:
    def test_counter_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_queries_total")
        counter.inc()
        counter.inc(2.5)
        assert registry.value("repro_queries_total") == 3.5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("repro_queries_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_goes_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_index_rows")
        gauge.set(10)
        gauge.inc(-3)
        assert registry.value("repro_index_rows") == 7.0

    def test_sixteen_thread_increment_storm_loses_nothing(self):
        registry = MetricsRegistry()
        n_threads, per_thread = 16, 1000
        barrier = threading.Barrier(n_threads)

        def worker(i):
            counter = registry.counter(
                "repro_serve_worker_queries_total", worker=str(i % 4)
            )
            histogram = registry.histogram("repro_query_seconds")
            barrier.wait()
            for j in range(per_thread):
                counter.inc()
                histogram.observe(j / per_thread)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.value("repro_serve_worker_queries_total") \
            == n_threads * per_thread
        assert registry.value("repro_query_seconds") \
            == n_threads * per_thread


class TestHistogram:
    def test_bucket_math_is_cumulative(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.7, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.cumulative() == [
            (1.0, 1), (2.0, 3), (4.0, 4), (math.inf, 5),
        ]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(106.7)

    def test_percentiles_interpolate_and_clamp(self):
        histogram = Histogram(buckets=(10.0, 20.0))
        for value in (5.0, 15.0, 15.0, 15.0):
            histogram.observe(value)
        # p0/p100 clamp to the observed extremes
        assert histogram.percentile(0.0) == 5.0
        assert histogram.percentile(1.0) == 15.0
        # the median lands inside the (10, 20] bucket
        assert 10.0 <= histogram.percentile(0.5) <= 15.0

    def test_inf_bucket_ends_at_observed_max(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(50.0)
        assert histogram.percentile(0.99) == 50.0

    def test_empty_histogram_reads_zero(self):
        histogram = Histogram()
        assert histogram.percentile(0.5) == 0.0
        assert histogram.summary()["count"] == 0

    def test_bad_buckets_raise(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram().percentile(1.5)

    def test_summary_fields(self):
        histogram = Histogram(buckets=DEFAULT_LATENCY_BUCKETS)
        for value in (0.001, 0.002, 0.004):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(0.007)
        assert summary["mean"] == pytest.approx(0.007 / 3)
        assert summary["p50"] <= summary["p95"] <= summary["p99"]


class TestRegistry:
    def test_get_or_create_returns_same_child(self):
        registry = MetricsRegistry()
        hits = "repro_pipeline_cache_hits_total"
        assert registry.counter(hits, kind="x") \
            is registry.counter(hits, kind="x")
        assert registry.counter(hits, kind="y") \
            is not registry.counter(hits, kind="x")

    def test_an_undeclared_name_raises_on_create_and_read(self):
        registry = MetricsRegistry()
        for call in (registry.counter, registry.gauge, registry.histogram,
                     registry.get, registry.value):
            with pytest.raises(ValueError, match="not declared"):
                call("repro_nope_total")
        assert registry.to_prometheus() == ""

    def test_a_declared_name_as_another_kind_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            registry.gauge("repro_queries_total")  # before any child
        registry.counter("repro_queries_total").inc()
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            registry.gauge("repro_queries_total")  # and after
        with pytest.raises(ValueError, match="not a histogram"):
            registry.histogram("repro_queries_total")
        assert registry.value("repro_queries_total") == 1.0

    def test_a_label_set_other_than_the_declared_one_raises(self):
        registry = MetricsRegistry()
        for labels in ({}, {"kind": "tree", "stage": "encode"},
                       {"stage": "encode"}):
            with pytest.raises(ValueError, match="takes labels"):
                registry.counter("repro_pipeline_cache_hits_total", **labels)
        with pytest.raises(ValueError, match="takes labels"):
            registry.counter("repro_queries_total", endpoint="/a")
        registry.counter(
            "repro_requests_total", status="200", method="GET", endpoint="/a"
        ).inc()  # any order of the declared names
        assert "repro_pipeline_cache_hits_total" not in registry.snapshot()

    def test_histograms_take_their_declared_buckets(self):
        registry = MetricsRegistry()
        for metric in METRICS.values():
            if metric.kind == "histogram":
                labels = {name: "x" for name in metric.labels}
                histogram = registry.histogram(metric.name, **labels)
                assert histogram.bounds == metric.buckets
            else:
                assert metric.buckets == ()
        assert registry.histogram("repro_microbatch_size").bounds \
            == SIZE_BUCKETS

    def test_value_sums_over_labels_and_missing_reads_zero(self):
        registry = MetricsRegistry()
        errors = "repro_request_errors_total"
        registry.counter(errors, endpoint="/a").inc(2)
        registry.counter(errors, endpoint="/b").inc(3)
        assert registry.value(errors) == 5.0
        assert registry.value(errors, endpoint="/a") == 2.0
        assert registry.value(errors, endpoint="/nope") == 0.0
        assert registry.value("repro_slow_queries_total") == 0.0
        assert registry.get("repro_slow_queries_total") is None

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("repro_queries_total").inc()
        registry.histogram("repro_query_seconds").observe(0.01)
        snapshot = registry.snapshot()
        queries = snapshot["repro_queries_total"]
        assert queries["kind"] == "counter"
        assert queries["help"] == METRICS["repro_queries_total"].help
        assert queries["series"][0]["value"] == 1.0
        assert snapshot["repro_query_seconds"]["series"][0]["count"] == 1
        json.dumps(snapshot)  # JSON-shaped by construction


class TestCatalogue:
    """``METRICS`` is the one declaration of every family: each name a
    call site uses is in it, and each entry is used."""

    SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

    def _literals(self):
        """``repro_...`` string literals outside the catalogue -> file."""
        found = {}
        for path in sorted(self.SRC.rglob("*.py")):
            if path.relative_to(self.SRC).as_posix() == "obs/metrics.py":
                continue
            for name in re.findall(r"[\"'](repro_[^\"']*)[\"']",
                                   path.read_text()):
                found.setdefault(name, path.name)
        return found

    def test_every_metric_literal_is_declared(self):
        literals = self._literals()
        assert {name: where for name, where in literals.items()
                if name not in METRICS} == {}
        assert len(literals) >= 40

    def test_no_declaration_is_dead(self):
        """A family is written by a call site that names it, or -- the
        ``polled`` gauges -- by the engine's scrape-time loop."""
        literals = self._literals()
        assert [m.name for m in METRICS.values()
                if not m.polled and m.name not in literals] == []

    def test_entries_are_well_formed(self):
        fields = {f.name for f in dataclasses.fields(EngineStats)}
        for name, metric in METRICS.items():
            assert name == metric.name and name.startswith("repro_")
            assert metric.kind in ("counter", "gauge", "histogram"), name
            assert metric.help and "|" not in metric.help, name
            assert metric.stat is None or metric.stat in fields, name
            assert not metric.polled or (
                metric.kind == "gauge" and metric.stat), name
        assert sum(m.polled for m in METRICS.values()) == 7
        assert sum(m.stat is not None and not m.polled
                   for m in METRICS.values()) == 9


class TestPrometheusExposition:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_queries_total").inc(3)
        registry.counter("repro_request_errors_total",
                         endpoint="/v1/query").inc(12)
        registry.gauge("repro_index_rows").set(12)
        text = registry.to_prometheus()
        assert "# HELP repro_queries_total Queries answered by the " \
            "engine\n" in text
        assert "# TYPE repro_queries_total counter\n" in text
        assert "repro_queries_total 3\n" in text
        assert 'repro_request_errors_total{endpoint="/v1/query"} 12\n' \
            in text
        assert "# TYPE repro_index_rows gauge\n" in text
        assert "repro_index_rows 12\n" in text

    def test_families_render_in_first_use_order(self):
        registry = MetricsRegistry()
        registry.gauge("repro_index_rows").set(1)
        registry.counter("repro_queries_total").inc()
        types = [line.split()[2] for line in
                 registry.to_prometheus().splitlines()
                 if line.startswith("# TYPE")]
        assert types == ["repro_index_rows", "repro_queries_total"]

    def test_histogram_exposition_is_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_query_seconds")
        for value in (0.05, 0.5, 2.0):
            histogram.observe(value)
        text = registry.to_prometheus()
        name = "repro_query_seconds"
        assert f'{name}_bucket{{le="0.05"}} 1\n' in text
        assert f'{name}_bucket{{le="0.1"}} 1\n' in text
        assert f'{name}_bucket{{le="1"}} 2\n' in text
        assert f'{name}_bucket{{le="+Inf"}} 3\n' in text
        assert f"{name}_sum 2.55\n" in text
        assert f"{name}_count 3\n" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_request_errors_total", endpoint='a"b\\c\nd'
        ).inc()
        text = registry.to_prometheus()
        assert 'endpoint="a\\"b\\\\c\\nd"' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestTrace:
    def test_no_open_span_reads_none(self):
        assert current_span() is None
        assert current_request_id() is None

    def test_nesting_builds_a_tree_with_one_request_id(self):
        with trace("root", n=1) as root:
            with trace("child") as child:
                with trace("grandchild") as grandchild:
                    assert current_span() is grandchild
                assert current_span() is child
        assert current_span() is None
        assert root.children == [child]
        assert child.children == [grandchild]
        assert root.request_id == child.request_id == grandchild.request_id
        assert len(root.request_id) == 16

    def test_explicit_request_id_wins(self):
        with trace("root", request_id="abc123") as root:
            assert current_request_id() == "abc123"
        assert root.request_id == "abc123"

    def test_to_dict_carries_times_attrs_children(self):
        with trace("root", query="q") as root:
            with trace("child"):
                pass
            root.set(n_hits=3)
        tree = root.to_dict()
        assert tree["name"] == "root"
        assert tree["attrs"] == {"query": "q", "n_hits": 3}
        assert tree["wall_ms"] >= 0.0 and tree["cpu_ms"] >= 0.0
        assert [c["name"] for c in tree["children"]] == ["child"]
        json.dumps(tree)

    def test_stack_pops_on_error(self):
        with pytest.raises(RuntimeError):
            with trace("boom"):
                raise RuntimeError("x")
        assert current_span() is None

    def test_threads_have_isolated_stacks(self):
        seen = {}

        def worker(name):
            with trace(name):
                seen[name] = (current_span().name, current_request_id())

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(4)]
        with trace("main"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert current_span().name == "main"
        names = {name for name, (span_name, _rid) in seen.items()}
        assert names == {"t0", "t1", "t2", "t3"}
        request_ids = {rid for _name, (_s, rid) in seen.items()}
        assert len(request_ids) == 4  # no cross-thread inheritance

    def test_new_request_ids_are_distinct(self):
        assert new_request_id() != new_request_id()


def _record(message="hello", level=logging.INFO):
    return logging.LogRecord(
        "repro.test", level, __file__, 1, message, (), None
    )


class TestLogging:
    def test_text_format_appends_rid_inside_a_span(self):
        formatter = _TextFormatter("%(message)s")
        record = _record()
        with trace("req", request_id="rid42"):
            assert _RequestIdFilter().filter(record)
        assert formatter.format(record) == "hello rid=rid42"

    def test_text_format_plain_outside_spans(self):
        formatter = _TextFormatter("%(message)s")
        record = _record()
        _RequestIdFilter().filter(record)
        assert formatter.format(record) == "hello"

    def test_json_format_is_one_object_per_line(self):
        record = _record()
        with trace("req", request_id="ridjson"):
            _RequestIdFilter().filter(record)
        entry = json.loads(JsonFormatter().format(record))
        assert entry["message"] == "hello"
        assert entry["level"] == "INFO"
        assert entry["logger"] == "repro.test"
        assert entry["request_id"] == "ridjson"

    def test_level_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
        assert _level_from_env() == logging.INFO
        monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
        assert _level_from_env() == logging.DEBUG
        monkeypatch.setenv("REPRO_LOG_LEVEL", "35")
        assert _level_from_env() == 35
        monkeypatch.setenv("REPRO_LOG_LEVEL", "NOPE")
        assert _level_from_env() == logging.INFO

    def test_handler_writes_to_the_stderr_of_each_record(self, monkeypatch):
        """The handler used to keep the ``sys.stderr`` of ``configure()``
        time: once a test that served had closed its captured stream,
        every later log line was a ``--- Logging error ---``."""
        import repro.utils.logging as repro_logging

        root = logging.getLogger("repro")
        monkeypatch.setattr(root, "handlers", list(root.handlers))
        monkeypatch.setattr(root, "level", root.level)
        monkeypatch.setattr(repro_logging, "_CONFIGURED", False)
        first, second = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stderr", first)
        repro_logging.configure(level=logging.INFO)
        first.close()
        monkeypatch.setattr(sys, "stderr", second)
        repro_logging.get_logger("test").warning("still heard")
        assert second.getvalue().endswith(" repro.test WARNING still heard\n")
        assert "Logging error" not in second.getvalue()

    def test_configure_rejects_bad_fmt(self):
        from repro.utils.logging import configure

        with pytest.raises(ValueError):
            configure(fmt="xml", force=True)
