"""Figure 10(b): offline-phase time per function, by approach.

Regenerates the offline timing comparison: Asteria's decompilation (A-D),
preprocessing (A-P) and Tree-LSTM encoding (A-E) versus Diaphora's hashing
(D-H) and Gemini's ACFG extraction (G-EX) and encoding (G-EN).  Expected
shape: Asteria's offline phase (dominated by decompilation + per-node
Tree-LSTM encoding) is slower than both baselines', and encoding time grows
with AST size.  Level-batched A-E is reported for the float64 reference
and the float32 fast path.  The staged-pipeline stage totals (cold and
warm over the artifact cache) come from the pipeline's instrumentation.
"""

import numpy as np

from repro.evalsuite.timing import (
    measure_encode_batched,
    measure_offline,
    measure_offline_pipeline,
)
from repro.pipeline import ArtifactCache

from benchmarks.conftest import emit_bench_json, scaled, write_result


def test_fig10b_offline_phase(benchmark, openssl, trained_asteria,
                              trained_gemini):
    rows = measure_offline(
        openssl, trained_asteria, trained_gemini,
        max_functions=scaled(40), seed=3,
    )
    assert rows

    def mean(attribute):
        return float(np.mean([getattr(r, attribute) for r in rows]))

    means = {
        "A-D (decompile)": mean("decompile_s"),
        "A-P (preprocess)": mean("preprocess_s"),
        "A-E (encode)": mean("encode_s"),
        "D-H (diaphora hash)": mean("diaphora_hash_s"),
        "G-EX (acfg extract)": mean("gemini_extract_s"),
        "G-EN (acfg encode)": mean("gemini_encode_s"),
    }
    batched, float32 = (
        measure_encode_batched(
            openssl, trained_asteria, batch_size=64,
            max_functions=scaled(40), seed=3, dtype=dtype,
        )
        for dtype in ("float64", "float32")
    )
    lines = [f"{'Phase':<22} {'mean seconds':>13}"]
    for name, value in means.items():
        lines.append(f"{name:<22} {value:>13.6f}")
    for label, stats in (("batched", batched), ("float32", float32)):
        lines.append(
            f"{f'A-E ({label} @64)':<22} {stats.batched_per_function_s:>13.6f}"
            f"   ({stats.speedup:.1f}x over per-tree A-E on the same "
            f"{stats.n_functions} fns)"
        )
    cache = ArtifactCache.in_memory()
    cold = measure_offline_pipeline(openssl, trained_asteria, cache=cache)
    warm = measure_offline_pipeline(openssl, trained_asteria, cache=cache)
    lines.append("")
    lines.append(
        "staged pipeline over the whole corpus "
        f"({cold.n_functions} functions):"
    )
    lines.append(
        f"  cold: decompile {cold.times.decompile_s:.3f}s, "
        f"preprocess {cold.times.preprocess_s:.3f}s, "
        f"encode {cold.times.encode_s:.3f}s"
    )
    lines.append(
        f"  warm: {warm.cache.encoding_hits} cached binaries, "
        f"extracted {warm.n_extracted}, encoded {warm.n_encoded}"
    )
    lines.append("")
    lines.append("encode time by AST size bucket:")
    buckets = [(0, 50), (50, 100), (100, 200), (200, 10 ** 9)]
    for low, high in buckets:
        sample = [r.encode_s for r in rows if low <= r.ast_size < high]
        if sample:
            lines.append(
                f"  size [{low:>3}, {high if high < 10**9 else 'inf'}): "
                f"{float(np.mean(sample)):.6f} s over {len(sample)} fns"
            )
    write_result("fig10b_offline", "\n".join(lines))
    emit_bench_json(
        "fig10b_offline",
        {
            "n_functions": len(rows),
            "mean_phase_seconds": means,
            "batched_per_function_s": batched.batched_per_function_s,
            "batched_speedup": batched.speedup,
            "float32_per_function_s": float32.batched_per_function_s,
            "float32_speedup": float32.speedup,
            "pipeline_cold_stage_seconds": {
                "decompile": cold.times.decompile_s,
                "preprocess": cold.times.preprocess_s,
                "encode": cold.times.encode_s,
            },
        },
    )

    # Warm pipeline runs skip the offline work entirely.
    assert warm.n_extracted == 0 and warm.n_encoded == 0

    # Shape: Asteria's offline stage is the most expensive of the three.
    asteria_offline = (means["A-D (decompile)"] + means["A-P (preprocess)"]
                       + means["A-E (encode)"])
    assert asteria_offline > means["D-H (diaphora hash)"]
    assert asteria_offline > means["G-EX (acfg extract)"] + means["G-EN (acfg encode)"]
    # Encoding grows with AST size.
    small = [r.encode_s for r in rows if r.ast_size < 80]
    large = [r.encode_s for r in rows if r.ast_size >= 80]
    if small and large:
        assert float(np.mean(large)) > float(np.mean(small))

    binary = openssl.binaries["x86"][0]
    record = binary.functions[0]
    from repro.decompiler.hexrays import decompile_function

    benchmark(decompile_function, binary, record)
