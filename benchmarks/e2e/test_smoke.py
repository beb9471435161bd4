"""Smoke test of the served-path benchmark: the same code path at toy
sizes.  Not part of tier-1 (``testpaths`` stays ``tests``); run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (about 90 s).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
FLOORS = {"ingest_cold": 0.99, "query_online": 0.99, "scan_exact": 0.99,
          "scan_ann": 0.90}


def _run(*args, timeout=170):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def smoke():
    done = _run("benchmarks/e2e/run.py", "--smoke")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads((HERE / "out" / "result.json").read_text())
    return done.stdout, result


def test_spec_names_are_well_formed():
    names = WORKLOADS + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])


def test_every_metric_is_printed_with_its_unit(smoke):
    stdout, _ = smoke
    lines = set(
        tuple(line.split()) for line in stdout.splitlines()
        if len(line.split()) == 4
    )
    printed = {(w, m, u) for w, m, _v, u in lines}
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert (workload, metric["name"], metric["unit"]) in printed, (
                workload, metric["name"]
            )
    for _w, _m, value, _u in lines:
        float(value)


def test_no_failed_ops_and_agreement_floors_hold(smoke):
    _, result = smoke
    seen = set()
    for run in result["runs"]:
        seen.add((run["workload"], run["trace"]))
        assert run["failed"] == 0, run
        assert run["attempted"] >= 1
        assert run["correct"], run
        assert run["end_to_end"]["topk_agreement"] >= FLOORS[run["workload"]]
        assert run["checked_queries"] > 0
    assert seen == {(w, t) for w in WORKLOADS for t in (False, True)}


def test_layers_do_work_only_where_they_should(smoke):
    _, result = smoke
    traced = {r["workload"]: r["per_layer"]
              for r in result["runs"] if r["trace"]}
    for workload, layers in traced.items():
        for name, value in layers.items():
            if name.startswith("quant."):
                assert (value > 0) == (workload == "scan_ann"), (workload, name)
            if name.startswith("decompiler.ms"):
                assert (value > 0) == (workload == "ingest_cold"), workload
        assert layers["server.healthz_rtt_ms"] > 0
        assert 0.5 < layers["trace.coverage"] < 1.5, workload
    assert traced["query_online"]["server.overhead_ms"] > 0


def test_trace_spans_have_parents_and_non_negative_self_time(smoke):
    for workload in WORKLOADS:
        trace = json.loads(
            (HERE / "out" / f"trace_{workload}.json").read_text()
        )
        spans = trace["spans"]
        assert spans, workload
        by_id = {s["id"]: s for s in spans}
        child_time = {}
        for span in spans:
            assert span["end"] >= span["start"]
            if span["name"] == "op":
                assert span["parent"] is None
                continue
            parent = by_id[span["parent"]]  # KeyError = orphan span
            assert parent["op"] == span["op"]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            child_time[parent["id"]] = (
                child_time.get(parent["id"], 0.0) + span["end"] - span["start"]
            )
        for span in spans:
            own = span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            assert own >= -1e-9, (workload, span)


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_form_prints_one_result_object(trace):
    done = _run("benchmarks/e2e/run.py", "--smoke", "--workload", "scan_ann",
                "--seed", "7", "--seconds", "2", "--trace", str(trace))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)


def test_oracle_notices_a_perturbed_row():
    done = _run("benchmarks/e2e/oracle.py")
    assert done.returncode == 0, done.stdout + done.stderr


def test_compare_refuses_other_hosts_and_passes_itself(smoke, tmp_path):
    _, result = smoke
    same = tmp_path / "a.json"
    same.write_text(json.dumps(result))
    done = _run("benchmarks/e2e/compare.py", str(same), str(same))
    assert done.returncode == 0, done.stdout + done.stderr
    assert " worse" not in done.stdout and "same" in done.stdout
    other = dict(result, host=dict(result["host"], nproc=64))
    moved = tmp_path / "b.json"
    moved.write_text(json.dumps(other))
    done = _run("benchmarks/e2e/compare.py", str(same), str(moved))
    assert done.returncode == 2 and "host.nproc" in done.stderr
