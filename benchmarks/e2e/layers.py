"""The traced run: where an op's time goes, layer by layer.

In-process and with fixed op counts, so the counts repeat exactly.  For
each workload two passes run over the same inputs:

* **pass A** times whole :class:`~repro.api.engine.AsteriaEngine` calls
  (``ingest`` / ``query`` / ``query_batch``) -- what the HTTP handler
  calls;
* **pass B** replays each op stage by stage through the public
  functions of the layers beneath the engine, with a benchmark-side
  span (name, start, end, parent, op) around each call.

``trace.coverage`` is pass B's summed layer time over pass A's engine
time: near 1 means the replay accounts for the op, far from 1 means the
engine spends time the replay does not name (or the replay double
counts).  Spans are kept in memory and written out when the pass ends;
nothing inside ``src/repro`` is instrumented.
"""

from __future__ import annotations

import base64
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import harness
from workloads import TOP_K, IngestCold, QueryOnline, Scan, Workload
from repro.api.batching import MicroBatcher
from repro.api.config import EngineConfig
from repro.api.engine import AsteriaEngine, IngestRequest, QueryRequest
from repro.binformat.binary import BinaryFile
from repro.core.model import DEFAULT_ENCODE_BATCH_SIZE, FunctionEncoding
from repro.index.ann import DEFAULT_MIN_CANDIDATES, make_index, select_top_k
from repro.index.store import EmbeddingStore
from repro.nn.treebatch import resolve_node_budget
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.cache import ArtifactCache, binary_digest
from repro.pipeline.stages import (
    decompile_stage,
    encode_stage,
    extract_binary,
    preprocess_one,
)
from repro.serving import generations
from repro.serving.coordinator import ServingCoordinator

#: Spans left out of ``trace.coverage`` because pass A never runs
#: them: the HTTP handler's parse, and the replay's own bookkeeping.
NOT_ENGINE_SPANS = ("binformat.parse", "replay.rebuild")
COVERAGE_BAND = (0.8, 1.2)


class Tracer:
    """Benchmark-side spans, kept in memory until the pass ends."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None

    @contextmanager
    def op(self, index: int):
        """The root span of one op; stage spans nest under it."""
        self._op = index
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans), "name": name, "op": self._op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str) -> List[float]:
        return [
            (s["end"] - s["start"]) * 1e3
            for s in self.spans if s["name"] == name
        ]

    def total_ms(self, name: str) -> float:
        return sum(self.durations_ms(name))

    def self_ms(self, name: str) -> List[float]:
        """Each span's duration minus what its child spans cover."""
        children: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = (
                    children.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        return [
            (s["end"] - s["start"] - children.get(s["id"], 0.0)) * 1e3
            for s in self.spans if s["name"] == name
        ]

    def stage_total_ms(self) -> float:
        """Time of every stage directly under an op root that the
        engine also runs -- the numerator of ``trace.coverage``."""
        roots = {s["id"] for s in self.spans if s["name"] == "op"}
        return sum(
            (s["end"] - s["start"]) * 1e3 for s in self.spans
            if s["parent"] in roots and s["name"] not in NOT_ENGINE_SPANS
        )


def _timed_ms(fn: Callable[[], object]) -> float:
    began = time.perf_counter()
    fn()
    return (time.perf_counter() - began) * 1e3


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def json_costs(request: bytes, response: bytes, repeats: int = 50) -> Dict:
    """What the handler pays to decode one request body and encode one
    response, measured on payloads captured from the HTTP run."""
    reply = json.loads(response)
    return {
        "server.json_decode_ms": _median(
            [_timed_ms(lambda: json.loads(request)) for _ in range(repeats)]
        ),
        "server.json_encode_ms": _median(
            [_timed_ms(lambda: json.dumps(reply)) for _ in range(repeats)]
        ),
    }


def _parse_b64(tracer: Tracer, encoded: str) -> BinaryFile:
    with tracer.span("binformat.parse"):
        return BinaryFile.from_bytes(base64.b64decode(encoded, validate=True))


def _coverage(tracer: Tracer, engine_total_ms: float) -> float:
    return tracer.stage_total_ms() / engine_total_ms if engine_total_ms else 0.0


# -- ingest_cold -----------------------------------------------------------


def trace_ingest(wl: IngestCold, work: Path, tracer: Tracer) -> Dict:
    model = wl.model
    binaries = wl.binaries[: wl.sizes.trace_binaries]
    config = EngineConfig()

    # pass A: whole engine calls, durable index + cold cache like the server
    engine = AsteriaEngine(
        EngineConfig(index_root=str(work / "a-index"),
                     cache_dir=str(work / "a-cache")),
        model=model,
    )
    engine.ingest(IngestRequest(binaries=[(wl.warm_binary, "warm")]))
    engine_ms = [
        _timed_ms(lambda: engine.ingest(
            IngestRequest(binaries=[(binary, f"img{i:04d}")])
        ))
        for i, binary in enumerate(binaries)
    ]

    # pass B: the same binaries, stage by stage
    cache = ArtifactCache(work / "b-cache")
    store = EmbeddingStore.create(
        work / "b-index", dim=model.config.hidden_dim,
        shard_size=config.shard_size, dtype=config.store_dtype,
    )
    min_ast = model.config.min_ast_size
    batch = DEFAULT_ENCODE_BATCH_SIZE
    node_budget = resolve_node_budget(0)
    fingerprint = model.fingerprint()
    n_records = n_decompiled = n_trees = n_nodes = 0
    digests = []
    for i, source in enumerate(binaries):
        encoded = base64.b64encode(source.to_bytes()).decode("ascii")
        with tracer.op(i):
            binary = _parse_b64(tracer, encoded)
            with tracer.span("cache.lookup"):
                digest = binary_digest(binary)
                cache.get_encodings(digest, fingerprint, min_ast,
                                    dtype=config.encode_dtype)
                cache.get_trees(digest, min_ast)
            with tracer.span("decompiler"):
                fns = decompile_stage(binary)
            with tracer.span("preprocess"):
                for fn in fns:
                    preprocess_one(fn, min_ast)
            # the columnar artifact the later stages consume; building it
            # repeats the two stages above, so it is not engine time
            with tracer.span("replay.rebuild"):
                extracted = extract_binary(binary, min_ast)
            with tracer.span("cache.put"):
                cache.put_trees(digest, min_ast, extracted)
            with tracer.span("pipeline.trees"):
                trees = extracted.trees()
            with tracer.span("treebatch.compile"):
                plan = model.compile_plan(
                    trees, batch, node_budget=node_budget
                )
            with tracer.span("cache.put"):
                cache.put_ctrees(digest, min_ast, batch, node_budget, plan)
            with tracer.span("treebatch.encode_wide"):
                encodings = encode_stage(
                    model, extracted, batch_size=batch, plan=plan,
                    dtype=config.encode_dtype, block=config.encode_block,
                )
            with tracer.span("cache.put"):
                cache.put_encodings(
                    digest, fingerprint, min_ast,
                    binary_name=extracted.binary_name, arch=extracted.arch,
                    encodings=encodings,
                    n_skipped_small=extracted.n_skipped_small,
                    dtype=config.encode_dtype,
                )
                cache.flush()
            with tracer.span("store.append_flush"):
                for encoding in encodings:
                    store.add(encoding, image_id=f"img{i:04d}")
                store.flush()
        digests.append(digest)
        n_records += len(binary.functions)
        n_decompiled += len(fns)
        n_trees += len(extracted)
        n_nodes += len(extracted.labels)

    get_ms = [
        _timed_ms(lambda: cache.get_encodings(
            digest, fingerprint, min_ast, dtype=config.encode_dtype
        ))
        for digest in digests
    ]
    flushes = tracer.durations_ms("store.append_flush")
    tenth = max(1, len(flushes) // 10)
    n = len(binaries)
    return {
        "engine.ingest_ms_per_binary": _median(engine_ms),
        "binformat.parse_ms": _median(tracer.durations_ms("binformat.parse")),
        "decompiler.ms_per_fn": tracer.total_ms("decompiler") / n_decompiled,
        "decompiler.fns_skipped": float(n_records - n_trees),
        "preprocess.ms_per_fn": tracer.total_ms("preprocess") / n_decompiled,
        "treebatch.compile_ms_per_tree":
            tracer.total_ms("treebatch.compile") / n_trees,
        "treebatch.encode_wide_ms_per_tree":
            tracer.total_ms("treebatch.encode_wide") / n_trees,
        "treebatch.nodes_per_tree": n_nodes / n_trees,
        "cache.put_ms_per_binary": tracer.total_ms("cache.put") / n,
        "cache.get_ms_per_binary": sum(get_ms) / n,
        "cache.bytes_per_fn": harness.dir_bytes(work / "b-cache") / n_trees,
        "store.append_flush_ms_per_binary": sum(flushes) / n,
        "store.flush_growth_ratio":
            statistics.fmean(flushes[-tenth:]) / statistics.fmean(flushes[:tenth]),
        "trace.coverage": _coverage(tracer, sum(engine_ms)),
    }


# -- query_online ----------------------------------------------------------


def trace_query(wl: QueryOnline, index_dir: Path, tracer: Tracer) -> Dict:
    model = wl.model
    config = EngineConfig()
    keys = [op.key for op in wl.ops()]
    keys = [keys[i % len(keys)] for i in range(wl.sizes.trace_queries)]

    # pass A: engine.query; the first query against a binary extracts it
    engine = AsteriaEngine(
        EngineConfig(index_root=str(index_dir)), model=model
    )
    engine.open_index()
    cold_ms, warm_ms, warm_ops, seen = [], [], [], set()
    for i, (b, f) in enumerate(keys):
        took = _timed_ms(lambda: engine.query(QueryRequest(
            binary=wl.query_binaries[b], function=wl.functions[b][f],
            top_k=TOP_K,
        )))
        if b in seen:
            warm_ms.append(took)
            warm_ops.append(i)
        else:
            cold_ms.append(took)
            seen.add(b)

    # pass B: the ops pass A ran warm, stage by stage
    store = EmbeddingStore.open(index_dir)
    index = make_index(
        "exact", model, store.vectors(), store.callee_counts()
    )
    memo = {}  # what the engine's extract memo holds once warm
    for b in sorted(seen):
        extracted = extract_binary(
            wl.query_binaries[b], model.config.min_ast_size
        )
        memo[b] = (extracted, dict(zip(extracted.names, extracted.trees())))

    def encode(trees):
        with tracer.span("treebatch.encode_single"):
            return model.encode_batch(
                trees, batch_size=config.encode_batch_size,
                dtype=config.encode_dtype, block=config.encode_block,
            )

    batcher = MicroBatcher(
        encode, max_batch_size=config.micro_batch_size,
        max_wait_s=config.micro_batch_wait_ms / 1000.0,
    )
    encoded = [
        base64.b64encode(binary.to_bytes()).decode("ascii")
        for binary in wl.query_binaries
    ]
    beta = model.config.beta
    for i in warm_ops:
        b, f = keys[i]
        function = wl.functions[b][f]
        with tracer.op(i):
            binary = _parse_b64(tracer, encoded[b])
            with tracer.span("pipeline.digest"):
                binary_digest(binary)
            extracted, trees = memo[b]
            with tracer.span("batching.encode"):
                vector = batcher.encode(trees[function])
            row = extracted.names.index(function)
            query = FunctionEncoding(
                name=function, arch=extracted.arch,
                binary_name=extracted.binary_name, vector=vector,
                callee_count=extracted.filtered_callee_count(row, beta),
                ast_size=int(extracted.ast_sizes[row]),
            )
            with tracer.span("ann.exact_topk"):
                neighbors = index.top_k(query, k=TOP_K)
            with tracer.span("store.metadata"):
                for neighbor in neighbors:
                    store.metadata_at(neighbor.row)
    return {
        "engine.query_ms": _median(warm_ms),
        "engine.extract_cold_ms": _median(cold_ms),
        "binformat.parse_ms": _median(tracer.durations_ms("binformat.parse")),
        "treebatch.encode_single_ms":
            _median(tracer.durations_ms("treebatch.encode_single")),
        "batching.wait_ms": _median(tracer.self_ms("batching.encode")),
        "ann.exact_topk_ms_per_query":
            _median(tracer.durations_ms("ann.exact_topk")),
        "trace.coverage": _coverage(tracer, sum(warm_ms)),
    }


# -- scan_exact / scan_ann -------------------------------------------------


def trace_scan(wl: Scan, index_dir: Path, tracer: Tracer) -> Dict:
    model = wl.model
    config = EngineConfig()
    n_batches = wl.sizes.trace_batches

    # pass A: engine.query_batch over the CVE library
    engine = AsteriaEngine(
        EngineConfig(index_root=str(index_dir), backend=wl.backend),
        model=model,
    )
    engine.open_index()
    requests = [QueryRequest(cve_id=c, top_k=TOP_K) for c in wl.cve_ids]
    engine.query_batch(requests)  # builds the library and the index
    engine_ms = [
        _timed_ms(lambda: engine.query_batch(requests))
        for _ in range(n_batches)
    ]
    library = engine.cve_library()
    queries = [library[c][1] for c in wl.cve_ids]
    n_q = len(queries)

    open_ms = []
    for _ in range(3):
        began = time.perf_counter()
        store = EmbeddingStore.open(index_dir)
        open_ms.append((time.perf_counter() - began) * 1e3)
    vectors, counts = store.vectors(), store.callee_counts()
    n_rows = len(store)
    exact = make_index("exact", model, vectors, counts)
    metrics = {
        "engine.query_batch_ms": _median(engine_ms),
        "store.open_ms": _median(open_ms),
        "store.files": float(
            sum(1 for p in Path(index_dir).rglob("*") if p.is_file())
        ),
    }

    def metadata(neighbor_lists) -> None:
        with tracer.span("store.metadata"):
            for neighbors in neighbor_lists:
                for row in neighbors:
                    store.metadata_at(int(row))

    if wl.backend == "exact":
        for i in range(n_batches):
            with tracer.op(i):
                with tracer.span("ann.exact_topk"):
                    found = exact.top_k_batch(queries, k=TOP_K)
                metadata([[n.row for n in ns] for ns in found])
        topk_ms = _median(tracer.durations_ms("ann.exact_topk"))
        metrics["ann.exact_topk_ms_per_query"] = topk_ms / n_q
        # the two things a sweep does to every block, each on its own
        blocks = []
        began = time.perf_counter()
        for start, block in vectors.iter_blocks():
            blocks.append((start, np.array(block)))  # copy = read it all
        per_100k = 1e5 / n_rows
        metrics["store.block_read_ms_per_100k_rows"] = (
            (time.perf_counter() - began) * 1e3 * per_100k
        )
        began = time.perf_counter()
        for start, block in blocks:
            model.similarity_matrix(
                queries, block, counts[start:start + len(block)]
            )
        metrics["model.score_ms_per_query_100k_rows"] = (
            (time.perf_counter() - began) * 1e3 * per_100k / n_q
        )
        del blocks
        metrics.update(_trace_pool(wl, index_dir, store, queries, topk_ms))
    else:
        registry = MetricsRegistry()
        began = time.perf_counter()
        tiered = make_index(
            wl.backend, model, vectors, counts, registry=registry,
            seed=config.seed, n_lists=config.ann_lists,
            nprobe=config.ann_nprobe, rerank=config.ann_rerank,
        )
        metrics["quant.build_s"] = time.perf_counter() - began
        wanted = max(TOP_K * tiered.oversample, DEFAULT_MIN_CANDIDATES)
        q_matrix = np.stack([np.asarray(q.vector) for q in queries])
        sizes, found = [], []
        for i in range(n_batches):
            with tracer.op(i):
                with tracer.span("quant.candidates"):
                    candidates = tiered.candidate_rows_batch(
                        q_matrix, wanted, queries
                    )
                with tracer.span("quant.rerank"):
                    found = []
                    for query, rows in zip(queries, candidates):
                        row_scores = tiered.score_matrix([query], rows)[0]
                        found.append(
                            rows[select_top_k(row_scores, rows, TOP_K)]
                        )
                metadata(found)
            sizes.extend(len(rows) for rows in candidates)
        truth = exact.top_k_batch(queries, k=TOP_K)
        swept = registry.get("repro_ann_swept_fraction")
        metrics.update({
            "quant.candidates_ms_per_query":
                _median(tracer.durations_ms("quant.candidates")) / n_q,
            "quant.rerank_ms_per_query":
                _median(tracer.durations_ms("quant.rerank")) / n_q,
            "quant.candidates_per_query": statistics.fmean(sizes),
            "quant.swept_fraction": swept.sum / swept.count,
            "quant.recall_at_10": statistics.fmean(
                len({n.row for n in ns} & set(map(int, rows))) / len(ns)
                for ns, rows in zip(truth, found)
            ),
            "quant.resident_bytes_per_fn": tiered.resident_nbytes / n_rows,
        })
    metrics["trace.coverage"] = _coverage(tracer, sum(engine_ms))
    return metrics


def _trace_pool(
    wl: Scan, index_dir: Path, store: EmbeddingStore, queries, inproc_ms: float
) -> Dict:
    """The shard-parallel pool as a layer: the same batch through
    ``ServingCoordinator.query_batch`` with 2 workers.  Nothing end to
    end uses it on a 2-core host; this is the baseline for the day a
    ``scan_pool`` workload exists."""
    coordinator = ServingCoordinator(wl.model, index_dir, 2, calibrate=True)
    try:
        coordinator.activate(generations.FLAT_GENERATION, store)
        coordinator.query_batch(queries, TOP_K, None)  # workers map shards
        pool_ms = _median([
            _timed_ms(lambda: coordinator.query_batch(queries, TOP_K, None))
            for _ in range(wl.sizes.trace_pool_batches)
        ])
    finally:
        coordinator.close()
    return {
        "serving.pool_sweep_ms_per_query": pool_ms / len(queries),
        "serving.pool_overhead_ratio": pool_ms / inproc_ms,
    }


def trace_workload(
    wl: Workload, index_dir: Path, work: Path
) -> Tuple[Dict, List[Dict]]:
    """Per-layer metrics and spans of the traced passes for ``wl``."""
    tracer = Tracer()
    if isinstance(wl, IngestCold):
        metrics = trace_ingest(wl, harness.fresh_dir(work / "trace"), tracer)
    elif isinstance(wl, QueryOnline):
        metrics = trace_query(wl, index_dir, tracer)
    else:
        metrics = trace_scan(wl, index_dir, tracer)
    return metrics, tracer.spans


def coverage_note(coverage: float, engine_ms: float) -> str:
    """One line saying whether the replay accounts for the engine."""
    low, high = COVERAGE_BAND
    if low <= coverage <= high:
        return f"within {low}-{high}"
    gap = engine_ms * (1.0 - coverage)
    return (
        f"OUTSIDE {low}-{high}: the engine call takes {gap:+.2f} ms/op "
        f"beyond the replayed layers"
    )
