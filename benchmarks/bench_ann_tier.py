"""Million-function tiered ANN index: recall@10-vs-throughput frontier.

The tiered backend's claims, measured on synthetic corpora
(:mod:`repro.index.synth`: clustered embeddings with known ground-truth
neighbors, scored by the distance-monotone head) at every size in
``ANN_TIER_SIZES`` (default ``100000,1000000``):

* **throughput** -- at the largest size, the best tiered operating
  point with recall@10 >= 0.9 vs the exact sweep must answer queries
  >= 5x faster than the exact float32 full sweep
  (``ANN_TIER_MIN_SPEEDUP`` relaxes the floor for slow CI runners).
  The floors are measured on a corpus whose rows all share the
  queries' callee count (``count_mod=1``), where the exact sweep must
  score every row: on diverse counts it stops at the first
  callee-count ring or two, which measures the corpus, not the tier.
  That diverse corpus (``count_mod=64``) is reported beside it,
  un-floored, with the fraction of rows the exact sweep scored;
* **memory** -- the quantized tier (int8 codes, centroids,
  assignments and inverted lists) must hold <= 0.3x the resident
  bytes of the float32 vectors it approximates;
* **fidelity** -- the frontier (qps vs recall@10 across ``nprobe``)
  is emitted per corpus size so the recall/speed trade stays diffable
  across revisions, beside a *storm* row: one query repeated
  ``N_QUERIES`` times in a batch, the shape that shares every probed
  list;
* **pruning** -- the quantized sweep visits the probed rows in rings of
  callee-count distance: on the diverse corpus it must quantize-score
  < 0.25 of the rows it probes, on the floor corpus (one ring) exactly
  all of them;
* **durability** -- reopening the persisted quantized state quantizes
  **zero** rows and reproduces the fresh index's results exactly.
"""

import os
import time
from pathlib import Path

import numpy as np

from repro.index.ann import BruteForceIndex
from repro.index.quant import IvfPqIndex
from repro.index.store import EmbeddingStore
from repro.index.synth import (
    SynthSpec,
    distance_head_model,
    synth_corpus,
    synth_queries,
)
from repro.obs.metrics import MetricsRegistry

from benchmarks.conftest import emit_bench_json, write_result

SIZES = [
    int(s) for s in os.environ.get(
        "ANN_TIER_SIZES", "100000,1000000"
    ).split(",") if s.strip()
]
MIN_SPEEDUP = float(os.environ.get("ANN_TIER_MIN_SPEEDUP", "5.0"))
MIN_RECALL_AT_10 = 0.9
MAX_BYTES_RATIO = 0.3
MAX_SWEPT_OF_PROBED = 0.25
DIM = 64
CLUSTER_SIZE = 16
N_QUERIES = 32
TOP_K = 10
NPROBE_FRONTIER = (1, 2, 4, 8, 16)
SHARD_SIZE = 8192
#: distinct callee counts of the floor corpus and of the reported one
FLOOR_COUNT_MOD = 1
DIVERSE_COUNT_MOD = 64


def _hit_rows(results):
    return [set(n.row for n in neighbors) for neighbors in results]


def _recall(hits, truth):
    return float(np.mean([
        len(h & t) / max(1, len(t)) for h, t in zip(hits, truth)
    ]))


def _measure(index, queries, repeats: int = 1):
    """(results, qps) of a batched top-k pass through ``index``."""
    began = time.perf_counter()
    for _ in range(repeats):
        results = index.top_k_batch(queries, k=TOP_K)
    elapsed = time.perf_counter() - began
    return results, len(queries) * repeats / max(elapsed, 1e-9)


def _bench_size(root: Path, n: int, count_mod: int) -> dict:
    spec = SynthSpec(
        n_functions=n, dim=DIM, cluster_size=CLUSTER_SIZE, seed=11,
        count_mod=count_mod,
    )
    model = distance_head_model(DIM)
    store = EmbeddingStore.create(root, dim=DIM, shard_size=SHARD_SIZE)
    began = time.perf_counter()
    synth_corpus(store, spec)
    synth_s = time.perf_counter() - began
    rng = np.random.default_rng(13)
    clusters = sorted(
        rng.choice(spec.n_clusters, size=N_QUERIES, replace=False)
    )
    queries = synth_queries(spec, clusters)
    vectors = store.vectors()
    counts = store.callee_counts()

    registry = MetricsRegistry()
    exact = BruteForceIndex(model, vectors, counts, registry=registry)
    exact_results, exact_qps = _measure(exact, queries)
    truth = _hit_rows(exact_results)
    scored = registry.get("repro_ann_rerank_fraction")

    began = time.perf_counter()
    tier_registry = MetricsRegistry()
    tier = IvfPqIndex(
        model, vectors, counts, seed=3, registry=tier_registry
    )
    build_s = time.perf_counter() - began
    frontier = []
    for nprobe in NPROBE_FRONTIER:
        tier.nprobe = nprobe
        results, qps = _measure(tier, queries)
        frontier.append({
            "nprobe": nprobe,
            "qps": round(qps, 2),
            "recall_at_10": round(_recall(_hit_rows(results), truth), 4),
        })

    probed = tier_registry.get("repro_ann_probed_fraction")
    swept = tier_registry.get("repro_ann_swept_fraction")

    # durable round-trip: persisted state must reopen quantization-free
    # and reproduce the fresh index bit-for-bit
    tier.nprobe = 8
    _, storm_qps = _measure(tier, [queries[0]] * N_QUERIES)
    params, arrays = tier.state_dict()
    store.write_ann_state(params, arrays)
    reopened = IvfPqIndex(
        model, store.vectors(), store.callee_counts(), seed=3,
        state=store.read_ann_state(),
    )
    fresh = tier.top_k_batch(queries, k=TOP_K)
    again = reopened.top_k_batch(queries, k=TOP_K)
    identical = fresh == again

    bytes_ratio = tier.resident_nbytes / (n * DIM * 4)
    eligible = [p for p in frontier if p["recall_at_10"] >= MIN_RECALL_AT_10]
    best = max(eligible, key=lambda p: p["qps"]) if eligible else None
    return {
        "n": n,
        "n_lists": int(tier.n_lists),
        "synth_s": round(synth_s, 2),
        "build_s": round(build_s, 2),
        "exact_qps": round(exact_qps, 3),
        "exact_scored_fraction": round(scored.sum / scored.count, 4),
        "frontier": frontier,
        "storm_qps": round(storm_qps, 2),
        "swept_of_probed": round(swept.sum / probed.sum, 4),
        "best": best,
        "speedup": (
            round(best["qps"] / exact_qps, 2) if best else None
        ),
        "bytes_per_vector": round(tier.resident_nbytes / n, 2),
        "bytes_ratio_vs_float32": round(bytes_ratio, 4),
        "reopen_rows_quantized": int(reopened.rows_quantized),
        "reopen_identical": bool(identical),
    }


def test_ann_tier(tmp_path_factory):
    per_size, diverse = (
        [
            _bench_size(
                tmp_path_factory.mktemp(f"ann_tier_{n}_{count_mod}") / "idx",
                n, count_mod,
            )
            for n in SIZES
        ]
        for count_mod in (FLOOR_COUNT_MOD, DIVERSE_COUNT_MOD)
    )
    lines = []
    for r, d in zip(per_size, diverse):
        lines.append(
            f"n={r['n']:>9,}  lists={r['n_lists']:>5}  "
            f"synth={r['synth_s']:.1f}s  build={r['build_s']:.1f}s  "
            f"exact={r['exact_qps']:.2f} q/s  "
            f"bytes/vec={r['bytes_per_vector']:.1f} "
            f"({r['bytes_ratio_vs_float32']:.3f}x fp32)  "
            f"reopen_quantized={r['reopen_rows_quantized']}"
        )
        for p in r["frontier"]:
            marker = " <- best" if p == r["best"] else ""
            lines.append(
                f"    nprobe={p['nprobe']:>3}  qps={p['qps']:>9.2f}  "
                f"recall@10={p['recall_at_10']:.4f}{marker}"
            )
        lines.append(
            f"    storm ({N_QUERIES} x one query, nprobe=8)  "
            f"qps={r['storm_qps']:>9.2f}  quantize-scored "
            f"{r['swept_of_probed']:.4f} of the probed rows"
        )
        lines.append(
            f"    speedup at recall>=0.9: "
            f"{r['speedup']}x (floor {MIN_SPEEDUP}x at the largest size)"
        )
        lines.append(
            f"    {DIVERSE_COUNT_MOD} callee counts (no floor): "
            f"exact={d['exact_qps']:.2f} q/s scoring "
            f"{d['exact_scored_fraction']:.4f} of the rows, best tiered "
            f"{d['best']['qps'] if d['best'] else None} q/s = "
            f"{d['speedup']}x quantize-scoring {d['swept_of_probed']:.4f} "
            f"of the probed rows, storm {d['storm_qps']:.2f} q/s"
        )
    text = "\n".join(lines) + "\n"
    write_result("ann_tier", text)
    emit_bench_json(
        "ann_tier",
        metrics={"sizes": per_size, "diverse_counts": diverse},
        floors={
            "min_speedup_at_largest": MIN_SPEEDUP,
            "min_recall_at_10": MIN_RECALL_AT_10,
            "max_bytes_ratio_vs_float32": MAX_BYTES_RATIO,
            "max_swept_of_probed_diverse": MAX_SWEPT_OF_PROBED,
            "reopen_rows_quantized": 0,
        },
    )
    for r, d in zip(per_size, diverse):
        # the floor corpus is the one the exact sweep cannot prune
        assert r["exact_scored_fraction"] == 1.0, r
        assert d["exact_scored_fraction"] < 0.1, d
        # ... and the one where every probed row is in the first ring
        assert r["swept_of_probed"] == 1.0, r
        assert d["swept_of_probed"] < MAX_SWEPT_OF_PROBED, d
        assert r["bytes_ratio_vs_float32"] <= MAX_BYTES_RATIO, (
            f"quantized tier holds {r['bytes_ratio_vs_float32']:.3f}x of "
            f"the float32 bytes at n={r['n']} (cap {MAX_BYTES_RATIO}x)"
        )
        assert r["reopen_rows_quantized"] == 0, (
            f"reopening persisted state re-quantized "
            f"{r['reopen_rows_quantized']} rows at n={r['n']}"
        )
        assert r["reopen_identical"], (
            f"persisted-state reopen changed results at n={r['n']}"
        )
        assert r["best"] is not None, (
            f"no operating point reached recall@10 >= "
            f"{MIN_RECALL_AT_10} at n={r['n']}: {r['frontier']}"
        )
    largest = max(per_size, key=lambda r: r["n"])
    assert largest["speedup"] >= MIN_SPEEDUP, (
        f"best tiered point at recall>=0.9 is only "
        f"{largest['speedup']}x over the exact sweep at "
        f"n={largest['n']} (floor {MIN_SPEEDUP}x)"
    )
