"""Computational-overhead measurements (paper §IV-F, Figure 10).

Asteria's offline stages are the corpus pipeline's stage functions
(:mod:`repro.pipeline.stages`) -- timed per function here, and in
aggregate through the instrumented :class:`~repro.pipeline.corpus.CorpusPipeline`
by :func:`measure_offline_pipeline`.  Measured:

* offline phase, per function -- decompilation (A-D), preprocessing (A-P)
  and Tree-LSTM encoding (A-E) for Asteria; AST hashing for Diaphora
  (D-H); ACFG extraction (G-EX) and graph encoding (G-EN) for Gemini;
* offline phase, per stage -- the staged pipeline's own instrumentation
  (stage totals, worker wall time, cache hit/miss accounting), cold or
  warm (:func:`measure_offline_pipeline`);
* batched offline encoding -- amortised per-function A-E through the
  level-batched engine, reported alongside the per-tree number
  (:func:`measure_encode_batched`);
* online phase -- similarity computation on cached artefacts for all three
  approaches;
* the AST size CDF (Figure 10a).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.diaphora import DiaphoraMatcher
from repro.baselines.gemini.acfg import extract_acfg
from repro.baselines.gemini.model import Gemini
from repro.core.model import Asteria
from repro.core.preprocess import lcrs_columns
from repro.decompiler.hexrays import DecompilationError
from repro.api.config import EngineConfig
from repro.api.engine import AsteriaEngine
from repro.evalsuite.datasets import Dataset
from repro.nn.treebatch import TreeColumns
from repro.nn.treelstm import unflatten_tree
from repro.pipeline import ArtifactCache, PipelineStats
from repro.pipeline.stages import decompile_one, preprocess_one
from repro.utils.rng import RNG


@dataclass
class OfflineRow:
    """Per-function offline timings, keyed by AST/CFG size."""

    function_name: str
    arch: str
    ast_size: int
    cfg_size: int
    decompile_s: float  # A-D
    preprocess_s: float  # A-P
    encode_s: float  # A-E
    diaphora_hash_s: float  # D-H
    gemini_extract_s: float  # G-EX
    gemini_encode_s: float  # G-EN


@dataclass
class BatchedEncodeStats:
    """Per-tree vs level-batched A-E over the same sampled functions."""

    batch_size: int
    n_functions: int
    sequential_s: float  # total per-tree encode wall time
    batched_s: float  # total level-batched encode wall time

    @property
    def batched_per_function_s(self) -> float:
        return self.batched_s / max(1, self.n_functions)

    @property
    def speedup(self) -> float:
        return self.sequential_s / self.batched_s if self.batched_s else 0.0


@dataclass
class OnlineStats:
    """Average per-pair online similarity times (Figure 10c)."""

    asteria_s: float
    gemini_s: float
    diaphora_s: float
    n_pairs: int


def ast_size_cdf(sizes: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted sizes and cumulative fractions (Figure 10a)."""
    sorted_sizes = np.sort(np.asarray(sizes, dtype=np.int64))
    fractions = np.arange(1, len(sorted_sizes) + 1) / len(sorted_sizes)
    return sorted_sizes, fractions


def measure_offline(
    dataset: Dataset,
    asteria: Asteria,
    gemini: Gemini,
    max_functions: int = 50,
    seed: int = 0,
) -> List[OfflineRow]:
    """Time the offline phases of all three approaches on sampled functions."""
    diaphora = DiaphoraMatcher()
    rows: List[OfflineRow] = []
    candidates = []
    for arch, binaries in sorted(dataset.binaries.items()):
        for binary in binaries:
            for record in binary.functions:
                candidates.append((binary, record))
    rng = RNG(seed)
    if len(candidates) > max_functions:
        candidates = rng.sample(candidates, max_functions)
    for binary, record in candidates:
        started = time.perf_counter()
        try:
            decompiled = decompile_one(binary, record)
        except DecompilationError:
            continue
        decompile_s = time.perf_counter() - started

        started = time.perf_counter()
        tree = preprocess_one(decompiled, asteria.config.min_ast_size)
        preprocess_s = time.perf_counter() - started
        if tree is None:
            continue

        started = time.perf_counter()
        asteria.encode_tree(tree)
        encode_s = time.perf_counter() - started

        started = time.perf_counter()
        diaphora.features(decompiled.ast)
        diaphora_hash_s = time.perf_counter() - started

        started = time.perf_counter()
        acfg = extract_acfg(binary, record)
        gemini_extract_s = time.perf_counter() - started

        started = time.perf_counter()
        gemini.encode(acfg)
        gemini_encode_s = time.perf_counter() - started

        rows.append(
            OfflineRow(
                function_name=decompiled.name,
                arch=decompiled.arch,
                ast_size=decompiled.ast_size(),
                cfg_size=acfg.n_blocks,
                decompile_s=decompile_s,
                preprocess_s=preprocess_s,
                encode_s=encode_s,
                diaphora_hash_s=diaphora_hash_s,
                gemini_extract_s=gemini_extract_s,
                gemini_encode_s=gemini_encode_s,
            )
        )
    return rows


def measure_offline_pipeline(
    dataset: Dataset,
    asteria: Asteria,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    encode_batch_size: int = 64,
) -> PipelineStats:
    """Aggregate per-stage offline times through the staged corpus pipeline.

    Complements :func:`measure_offline`'s per-function rows: every binary
    of the dataset runs through :class:`~repro.pipeline.corpus.CorpusPipeline`,
    whose instrumentation reports stage totals plus cache hit/miss
    accounting.  Passing a warm ``cache`` shows the offline phase
    collapsing to cache reads (near-zero decompile/encode seconds).
    """
    binaries = [
        binary
        for arch in sorted(dataset.binaries)
        for binary in dataset.binaries[arch]
    ]
    pipeline = AsteriaEngine(
        EngineConfig(jobs=jobs, encode_batch_size=encode_batch_size),
        model=asteria,
        cache=cache,
    ).pipeline
    return pipeline.run(binaries=binaries).stats


def corpus_columns(dataset: Dataset, min_ast_size: int) -> List[TreeColumns]:
    """Every corpus function's one-tree columns (too-small ASTs dropped).

    Shared by the batched-encode measurement here and the float32
    ranking test, so both sample with identical eligibility rules.
    """
    out = []
    for arch in sorted(dataset.functions):
        for fn in dataset.functions[arch]:
            columns = lcrs_columns(fn.ast)
            if len(columns[0]) >= min_ast_size:
                out.append(TreeColumns.single(*columns))
    return out


def measure_encode_batched(
    dataset: Dataset,
    asteria: Asteria,
    batch_size: int = 64,
    max_functions: int = 200,
    seed: int = 0,
    dtype: str = "float64",
) -> BatchedEncodeStats:
    """Amortised A-E through the level-batched engine vs per-tree encoding.

    Both paths encode the same preprocessed trees, so the ratio isolates
    exactly the gain of stacking same-level nodes into shared GEMMs;
    ``dtype="float32"`` times the batched engine's fast path instead.
    """
    columns = corpus_columns(dataset, asteria.config.min_ast_size)
    if not columns:
        raise ValueError("no encodable functions in the dataset")
    rng = RNG(seed)
    if len(columns) > max_functions:
        columns = rng.sample(columns, max_functions)
    trees = [unflatten_tree(c.labels.tolist(), c.lefts.tolist(),
                            c.rights.tolist()) for c in columns]

    started = time.perf_counter()
    for tree in trees:
        asteria.encode_tree(tree)
    sequential_s = time.perf_counter() - started

    # the one-time GEMM block probe runs here, outside the timing
    asteria.encode_columns(columns[0], batch_size, dtype=dtype)
    batch = TreeColumns.concat(columns)
    started = time.perf_counter()
    asteria.encode_columns(batch, batch_size, dtype=dtype)
    batched_s = time.perf_counter() - started

    return BatchedEncodeStats(
        batch_size=batch_size,
        n_functions=len(columns),
        sequential_s=sequential_s,
        batched_s=batched_s,
    )


def measure_online(
    dataset: Dataset,
    asteria: Asteria,
    gemini: Gemini,
    n_pairs: int = 200,
    seed: int = 0,
) -> OnlineStats:
    """Time the online (per-pair) similarity of all three approaches.

    All inputs are precomputed (encodings / multisets), isolating exactly
    the per-pair comparison cost the paper reports in Figure 10(c).
    """
    diaphora = DiaphoraMatcher()
    rng = RNG(seed)
    functions = []
    for arch in sorted(dataset.functions):
        functions.extend(dataset.functions[arch])
    functions = [
        fn for fn in functions
        if fn.ast_size() >= asteria.config.min_ast_size
    ]
    if len(functions) < 2:
        raise ValueError("need at least two functions")
    sample = [
        (rng.choice(functions), rng.choice(functions)) for _ in range(n_pairs)
    ]
    asteria_enc = {}
    gemini_enc = {}
    diaphora_feat = {}
    for fn in {id(f): f for pair in sample for f in pair}.values():
        key = id(fn)
        asteria_enc[key] = asteria.encode_function(fn)
        gemini_enc[key] = gemini.encode(dataset.acfg_for(fn))
        diaphora_feat[key] = diaphora.features(fn.ast)

    started = time.perf_counter()
    for a, b in sample:
        asteria.similarity(asteria_enc[id(a)], asteria_enc[id(b)])
    asteria_s = (time.perf_counter() - started) / n_pairs

    started = time.perf_counter()
    for a, b in sample:
        gemini.similarity_from_vectors(gemini_enc[id(a)], gemini_enc[id(b)])
    gemini_s = (time.perf_counter() - started) / n_pairs

    started = time.perf_counter()
    for a, b in sample:
        diaphora.similarity_from_features(diaphora_feat[id(a)], diaphora_feat[id(b)])
    diaphora_s = (time.perf_counter() - started) / n_pairs

    return OnlineStats(
        asteria_s=asteria_s,
        gemini_s=gemini_s,
        diaphora_s=diaphora_s,
        n_pairs=n_pairs,
    )
