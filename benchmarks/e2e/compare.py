#!/usr/bin/env python3
"""Compare two result files of the served-path benchmark.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline (the parent commit), ``B`` the candidate; both are
``out/result.json`` files written by ``run.py --runs N``.  For every
workload x end-to-end metric the table gives both medians with their
quartiles, the relative change, the regression bound from
``BENCHMARK.json`` and a verdict:

* ``unresolved`` -- either side's interquartile spread is wider than the
  bound, so the runs cannot tell a regression of that size from noise;
* ``worse``      -- B's median is worse than A's by more than the bound;
* ``better``     -- B's median is better than A's by more than A's own
  spread;
* ``same``       -- anything else.

Results measured on different hosts or under different noise controls
are not comparable and are refused (exit code 2).  Exit code 1 when any
verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]

#: Host fields that must match; ``git_rev`` is what is being compared
#: and ``platform`` repeats the kernel build string.
HOST_KEYS = ("nproc", "affinity", "cpu_model", "ram_bytes", "python", "numpy")


def differences(a: Dict, b: Dict) -> List[str]:
    """Why two results must not be compared (empty when they may be)."""
    problems = []
    for key in HOST_KEYS:
        if a["host"].get(key) != b["host"].get(key):
            problems.append(
                f"host.{key}: {a['host'].get(key)!r} vs {b['host'].get(key)!r}"
            )
    controls_a, controls_b = a["noise_controls"], b["noise_controls"]
    for key in sorted(set(controls_a) | set(controls_b)):
        if controls_a.get(key) != controls_b.get(key):
            problems.append(
                f"noise_controls.{key}: {controls_a.get(key)!r} vs "
                f"{controls_b.get(key)!r}"
            )
    return problems


def _spread(entry: Dict) -> float:
    return (entry["q3"] - entry["q1"]) / entry["median"] if entry["median"] else 0.0


def verdict(a: Dict, b: Dict, better: str, bound: float) -> Dict:
    """Compare one metric's summary entries (median, q1, q3)."""
    change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    worsening = change if better == "lower" else -change
    if max(_spread(a), _spread(b)) > bound:
        word = "unresolved"
    elif worsening > bound:
        word = "worse"
    elif -worsening > _spread(a):
        word = "better"
    else:
        word = "same"
    return {"change": change, "verdict": word}


def compare(a: Dict, b: Dict, spec: Dict) -> List[Dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["summary"] or workload not in b["summary"]:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ea, eb = a["summary"][workload][name], b["summary"][workload][name]
            row = verdict(ea, eb, metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"], a=ea, b=eb)
            rows.append(row)
    return rows


def render(rows: List[Dict]) -> str:
    lines = [
        f"{'workload':<13} {'metric':<19} {'unit':<5} "
        f"{'A median [q1, q3]':<34} {'B median [q1, q3]':<34} "
        f"{'change':>8} {'bound':>6}  verdict"
    ]
    for row in rows:
        def cell(entry):
            return (f"{entry['median']:.4g} [{entry['q1']:.4g}, "
                    f"{entry['q3']:.4g}] n={len(entry['values'])}")
        lines.append(
            f"{row['workload']:<13} {row['metric']:<19} {row['unit']:<5} "
            f"{cell(row['a']):<34} {cell(row['b']):<34} "
            f"{row['change']:>+8.2%} {row['bound']:>6}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    problems = differences(a, b)
    if problems:
        print("refusing to compare; the results differ in:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    print(f"A: git {a['host']['git_rev'][:12]}   B: git {b['host']['git_rev'][:12]}")
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
