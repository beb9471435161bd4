#!/usr/bin/env python3
"""The served-path benchmark: one command, every metric by name.

Drives a real ``python -m repro.cli serve`` child over keep-alive HTTP,
checks its answers against :mod:`oracle`, and prints the metrics that
``BENCHMARK.json`` names.  See ``README.md`` beside this file.

One run, the form the benchmark driver calls (last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``)::

    python3 benchmarks/e2e/run.py --workload scan_ann --seed 3 \\
        --seconds 20 --trace 0

A set of runs, interleaved round-robin across workloads, written to
``benchmarks/e2e/out/result.json``::

    python3 benchmarks/e2e/run.py --runs 5 [--workload W] [--trace]
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --calibrate --runs 5

``PYTHONPATH=src python -m benchmarks.e2e.run ...`` works too.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: no src/repro under {ROOT}; nothing to benchmark")
# the oracle's GEMMs run in this process; keep BLAS off the server's CPU
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from harness import Client, ServerProcess  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
RESULT_PATH = harness.OUT / "result.json"

#: Share of ``--seconds`` the traced run spends on its HTTP phase; the
#: rest of its budget goes to the in-process passes.
TRACE_HTTP_SHARE = 0.4
HEALTHZ_PROBES = 50
#: ``GET /healthz`` round trips an end-to-end run spends on measuring
#: the transport floor its latencies are corrected around.
FLOOR_PROBES = 10


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _run_ops(client: Client, ops, what: str) -> None:
    for op in ops:
        status, data, _ = client.request(op.method, op.path, op.body)
        if not 200 <= status < 300:
            raise RuntimeError(f"{what} op failed ({status}): {data[:300]!r}")


def _set_up(name, seed, sizes, reps: int, server_cpu, work: Path,
            reaper) -> Dict:
    """Model and inputs, corpus, then ``reps`` server lifecycles (spawn
    + warm-up); the last server stays up for the timed phase.  Every
    server is registered with ``reaper`` so none outlives the run."""
    began = time.perf_counter()
    model = workloads.make_model()
    model.save(work / "model.npz")
    wl = workloads.WORKLOADS[name](
        seed, sizes, work, work / "model.npz", model
    )
    wl.make_inputs()
    ops, warmup = wl.ops(), wl.warmup_ops()
    inputs_s = time.perf_counter() - began

    began = time.perf_counter()
    wl.build_corpus(server_cpu)
    corpus_s = time.perf_counter() - began

    server = rep_dir = None
    starts, warmups = [], []
    for rep in range(reps):
        if server is not None:
            server.stop(graceful=False)
            shutil.rmtree(rep_dir)
        rep_dir = harness.fresh_dir(work / f"rep{rep}")
        began = time.perf_counter()
        server = ServerProcess(
            wl.serve_args(rep_dir), work / "server.log", cpu=server_cpu
        )
        reaper.callback(server.stop)
        server.start()
        starts.append(time.perf_counter() - began)
        began = time.perf_counter()
        client = Client(server.port)
        _run_ops(client, warmup, "warm-up")
        client.close()
        warmups.append(time.perf_counter() - began)
    return {
        "wl": wl, "ops": ops, "server": server, "rep_dir": rep_dir,
        "inputs_s": inputs_s, "corpus_s": corpus_s,
        "server_start_s": statistics.median(starts),
        "warmup_s": statistics.median(warmups),
        "setup_s": inputs_s + corpus_s + statistics.median(
            s + w for s, w in zip(starts, warmups)
        ),
    }


def _transport_floor(client: Client, probes: int) -> float:
    """Seconds a reply costs when the handler does next to nothing
    (today a ~40 ms delayed-ACK stall per keep-alive reply)."""
    took = [
        seconds for status, _, seconds in (
            client.request("GET", "/healthz") for _ in range(probes)
        ) if status == 200
    ]
    return statistics.median(took) if took else 0.0


def run_once(
    name: str,
    seed: int,
    seconds: float,
    sizes: workloads.Sizes,
    trace: bool,
    server_cpu: Optional[int],
    probe_cpu: int,
) -> Dict:
    """One run of one workload: fresh work dir, fresh server(s).

    Returns the run record (``correct``/``attempted``/``failed``, the
    end-to-end metrics, and with ``trace`` the per-layer metrics).
    Latencies and throughput in ``end_to_end`` are quoted at reference
    host speed (see :mod:`speed_probe`); ``raw`` holds them as measured.
    """
    stale = harness.reap_stale_servers()
    work = harness.fresh_dir(harness.WORK_ROOT / f"{name}-{os.getpid()}")
    try:
        with contextlib.ExitStack() as reaper:
            setup = _set_up(
                name, seed, sizes, 1 if trace else sizes.setup_reps,
                server_cpu, work, reaper,
            )
            wl, server, rep_dir = (
                setup["wl"], setup["server"], setup["rep_dir"]
            )

            cpu_before = server.cpu_seconds()
            with harness.SpeedProbe(probe_cpu) as probe:
                results, elapsed = harness.closed_loop(
                    server.port, setup["ops"], wl.n_clients,
                    seconds * TRACE_HTTP_SHARE if trace else seconds,
                    wl.cycle,
                )
            cpu_s = server.cpu_seconds() - cpu_before
            peak_rss_mb = server.peak_rss_mb()

            client = Client(server.port)
            stats = client.get_json("/v1/stats")
            wl.post_phase(client, results)
            floor_s = _transport_floor(
                client, HEALTHZ_PROBES if trace else FLOOR_PROBES
            )
            client.close()
            server.stop()

        ok = [r for r in results if r.ok]
        if not ok:
            raise RuntimeError(
                f"no op of the timed phase succeeded; first reply: "
                f"{results[0].status} {results[0].response[:300]!r}"
            )
        units = sum(wl.units(r) for r in ok)
        raw_s = [r.seconds for r in ok]
        quoted_s = [
            harness.speed_corrected(s, floor_s, probe.speed) for s in raw_s
        ]
        # a closed loop's phase is its latencies laid end to end
        quoted_elapsed = elapsed * sum(quoted_s) / sum(raw_s)
        agreements = wl.agreements(results, rep_dir)
        agreement = statistics.fmean(agreements) if agreements else 0.0
        failed = len(results) - len(ok)
        record = {
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": trace,
            "correct": failed == 0
            and agreement >= workloads.AGREEMENT_FLOOR[name],
            "attempted": len(results), "failed": failed,
            "phase_s": elapsed, "samples": len(ok),
            "throughput_unit": f"{wl.unit}/s",
            "checked_queries": len(agreements),
            "stale_servers_killed": stale,
            "host_speed": probe.speed,
            "speed_probe_starved": probe.starved,
            "transport_floor_ms": floor_s * 1e3,
            "end_to_end": {
                "setup_s": setup["setup_s"],
                "throughput_per_s": units / quoted_elapsed,
                "latency_p50_ms": _percentile(quoted_s, 50) * 1e3,
                "latency_p90_ms": _percentile(quoted_s, 90) * 1e3,
                "peak_rss_mb": peak_rss_mb,
                "index_bytes_per_fn":
                    harness.dir_bytes(wl.index_dir(rep_dir))
                    / stats["index_rows"],
                "topk_agreement": agreement,
            },
            "raw": {
                "throughput_per_s": units / elapsed,
                "latency_p50_ms": _percentile(raw_s, 50) * 1e3,
                "latency_p90_ms": _percentile(raw_s, 90) * 1e3,
            },
        }
        if trace:
            per_layer = {
                f"setup.{key}": setup[key] for key in
                ("inputs_s", "corpus_s", "server_start_s", "warmup_s")
            }
            per_layer.update({
                "server.healthz_rtt_ms": floor_s * 1e3,
                "server.request_bytes":
                    statistics.fmean(len(r.op.body) for r in ok),
                "server.response_bytes":
                    statistics.fmean(len(r.response) for r in ok),
                "server.cpu_ms_per_op": cpu_s * 1e3 / len(results),
                "batching.mean_batch_size": stats["micro_batch_mean"],
            })
            per_layer.update(layers.json_costs(ok[0].op.body, ok[0].response))
            traced, spans = layers.trace_workload(
                wl, wl.index_dir(rep_dir), work
            )
            per_layer.update(traced)
            engine_ms = max(
                per_layer.get(key, 0.0) for key in (
                    "engine.ingest_ms_per_binary", "engine.query_ms",
                    "engine.query_batch_ms",
                )
            )
            per_layer["server.overhead_ms"] = (
                record["raw"]["latency_p50_ms"] - engine_ms
            )
            record["per_layer"] = per_layer
            record["coverage_note"] = layers.coverage_note(
                per_layer["trace.coverage"], engine_ms
            )
            harness.OUT.mkdir(exist_ok=True)
            (harness.OUT / f"trace_{name}.json").write_text(json.dumps({
                "workload": name, "seed": seed, "spans": spans,
            }))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- printing -----------------------------------------------------------------


def contract_metrics(record: Dict) -> Dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics
    ``BENCHMARK.json`` lists for this kind of run; a layer that does no
    work on this workload reads 0."""
    if record["trace"]:
        return {
            name: {"value": float(record["per_layer"].get(name, 0.0)),
                   "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    return {
        name: {"value": float(record["end_to_end"][name]), "unit": unit}
        for name, unit in E2E_UNITS.items()
    }


def print_record(record: Dict) -> None:
    name = record["workload"]
    kind = "traced" if record["trace"] else "end-to-end"
    print(
        f"# {name} seed={record['seed']} {kind}: phase "
        f"{record['phase_s']:.2f}s, ops_attempted={record['attempted']} "
        f"ops_failed={record['failed']} latency_samples={record['samples']} "
        f"checked_queries={record['checked_queries']} "
        f"throughput in {record['throughput_unit']}"
    )
    raw = record["raw"]
    print(
        f"# {name} host speed {record['host_speed']:.3f} of reference"
        f"{' (probe starved: uncorrected)' if record['speed_probe_starved'] else ''}"
        f", transport floor {record['transport_floor_ms']:.1f} ms; as "
        f"measured: {raw['throughput_per_s']:.5g} /s, p50 "
        f"{raw['latency_p50_ms']:.5g} ms, p90 {raw['latency_p90_ms']:.5g} ms"
    )
    for metric, unit in E2E_UNITS.items():
        print(f"{name} {metric} {record['end_to_end'][metric]:.6g} {unit}")
    if record["trace"]:
        for metric, entry in contract_metrics(record).items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        print(f"{name} trace.coverage is {record['coverage_note']}")
    if not record["correct"]:
        print(f"{name} INCORRECT: failed ops or topk_agreement below "
              f"{workloads.AGREEMENT_FLOOR[name]}")
    sys.stdout.flush()


def summarize(records: List[Dict]) -> Dict:
    """Per workload and end-to-end metric: values, median, quartiles."""
    summary: Dict = {}
    for record in records:
        if record["trace"]:
            continue
        per_workload = summary.setdefault(record["workload"], {})
        for metric, value in record["end_to_end"].items():
            per_workload.setdefault(metric, {"values": []})["values"].append(
                value
            )
    for per_workload in summary.values():
        for entry in per_workload.values():
            values = entry["values"]
            entry["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["q1"], entry["q3"] = q1, q3
            else:
                entry["q1"] = entry["q3"] = values[0]
    return summary


def print_summary(summary: Dict) -> None:
    print("\nworkload       metric               unit   n     median"
          "         q1         q3  spread")
    for name, per_workload in summary.items():
        for metric, entry in per_workload.items():
            spread = (
                (entry["q3"] - entry["q1"]) / entry["median"]
                if entry["median"] else 0.0
            )
            print(
                f"{name:<14} {metric:<20} {E2E_UNITS[metric]:<6} "
                f"{len(entry['values']):<3} {entry['median']:>10.4f} "
                f"{entry['q1']:>10.4f} {entry['q3']:>10.4f}  {spread:.4f}"
            )


# -- sets of runs ---------------------------------------------------------------


def noise_controls(sizes, seconds, server_cpu, loadgen_cpus) -> Dict:
    return {
        "seconds": seconds,
        "sizes": dataclasses.asdict(sizes),
        "work_dir": str(harness.WORK_ROOT.relative_to(ROOT)),
        "server_env": harness.SERVER_ENV,
        "server_cpu": server_cpu,
        "loadgen_cpus": loadgen_cpus,
        "speed_probe": "speed_probe.py on loadgen_cpus[0], SCHED_IDLE; "
                       "latency above the transport floor scaled to "
                       "reference speed",
        "readiness": "read the 'serving on' line",
        "op_timeout_s": harness.OP_TIMEOUT_S,
        "warmup_excluded": True,
        "interleaving": "round-robin across workloads",
    }


def run_set(
    names: Sequence[str], runs: int, seed: int, seconds: float,
    sizes: workloads.Sizes, trace: bool, server_cpu: Optional[int],
    probe_cpu: int,
) -> List[Dict]:
    """``runs`` end-to-end runs per workload, round-robin so slow host
    drift lands in every workload's median; then, with ``trace``, one
    traced run each."""
    records = []
    plan = [(r, name, False) for r in range(runs) for name in names]
    if trace:
        plan += [(0, name, True) for name in names]
    for r, name, traced in plan:
        record = run_once(name, seed + r, seconds, sizes, traced, server_cpu,
                          probe_cpu)
        print_record(record)
        records.append(record)
    return records


def write_result(records, controls, seed, extra=None) -> None:
    harness.OUT.mkdir(exist_ok=True)
    payload = {
        "schema_version": 1,
        "host": harness.host_info(),
        "noise_controls": controls,
        "seed": seed,
        "runs": records,
        "summary": summarize(records),
    }
    payload.update(extra or {})
    RESULT_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True))
    print(f"\nwrote {RESULT_PATH.relative_to(ROOT)}")


def calibrate(names, runs, seed, seconds, sizes, server_cpu, probe_cpu,
              controls) -> int:
    """Three back-to-back sets of the same code: how far do medians
    move on their own?  A bound must be at least twice that."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    sets, records = [], []
    for s in range(3):
        print(f"\n## calibration set {s + 1} of 3")
        one = run_set(names, runs, seed + s * runs, seconds, sizes, False,
                      server_cpu, probe_cpu)
        records.extend(one)
        sets.append(summarize(one))
    pooled = summarize(records)
    lines = [
        "# Calibration: three back-to-back sets of the same code",
        "",
        f"{runs} runs per workload per set, {seconds:g} s phases, seeds "
        f"{seed}..{seed + 3 * runs - 1}, git {harness.host_info()['git_rev'][:12]}.",
        "`gap` is the largest worsening of a set's median against "
        "another set's, as a share of the better one; `spread` is the "
        "interquartile range of all runs over their median. A bound "
        "must be at least twice the gap, and the spread should stay "
        "under a third of the bound.",
        "",
        "| workload | metric | set medians | gap | spread | bound | ok |",
        "|---|---|---|---|---|---|---|",
    ]
    worst = 0
    for name in names:
        for metric in E2E_UNITS:
            medians = [s[name][metric]["median"] for s in sets]
            lo, hi = min(medians), max(medians)
            gap = (hi - lo) / (lo if better[metric] == "lower" else hi)
            entry = pooled[name][metric]
            spread = (entry["q3"] - entry["q1"]) / entry["median"]
            ok = 2 * gap <= bounds[metric] and (
                metric == "setup_s" or spread <= bounds[metric]
            )
            worst += not ok
            lines.append(
                f"| {name} | {metric} | "
                f"{' / '.join(f'{m:.4g}' for m in medians)} | {gap:.4f} | "
                f"{spread:.4f} | {bounds[metric]} | "
                f"{'yes' if ok else 'NO'} |"
            )
    report = "\n".join(lines) + "\n"
    print("\n" + report)
    (HERE / "CALIBRATION.md").write_text(report)
    write_result(records, controls, seed, {"calibration_sets": sets})
    return 1 if worst else 0


# -- entry --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase length (default: run_seconds of "
                             "BENCHMARK.json; 3 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 = the traced run with per-layer metrics")
    parser.add_argument("--runs", type=int, default=None,
                        help="runs per workload, interleaved; writes "
                             "out/result.json")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, end to end and traced, at "
                             "toy sizes")
    parser.add_argument("--calibrate", action="store_true",
                        help="three back-to-back sets; writes CALIBRATION.md")
    args = parser.parse_args(argv)

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    seconds = args.seconds or (3.0 if args.smoke else SPEC["run_seconds"])
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    server_cpu, loadgen_cpus = harness.plan_affinity(os.sched_getaffinity(0))
    probe_cpu = loadgen_cpus[0]
    controls = noise_controls(sizes, seconds, server_cpu, loadgen_cpus)
    os.sched_setaffinity(0, loadgen_cpus)

    if args.calibrate:
        return calibrate(names, args.runs or 5, args.seed, seconds, sizes,
                         server_cpu, probe_cpu, controls)
    if args.workload and args.runs is None:
        # the driver's form: one run, the result object on the last line
        record = run_once(args.workload, args.seed, seconds, sizes,
                          bool(args.trace), server_cpu, probe_cpu)
        print_record(record)
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": contract_metrics(record),
        }))
        return 0 if record["correct"] else 1
    records = run_set(names, args.runs or 1, args.seed, seconds, sizes,
                      bool(args.trace) or args.smoke, server_cpu, probe_cpu)
    print_summary(summarize(records))
    write_result(records, controls, args.seed)
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
