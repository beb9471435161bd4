"""Shard-parallel serving: pooled sweep throughput + hot-swap liveness.

The serving subsystem's claim is twofold:

* **throughput** -- with ``serve_workers=N``, concurrent queries sweep
  disjoint shard ranges in N worker processes *outside* the engine
  lock, while the single-process path serializes every sweep behind it.
  An engine-level 16-client storm of pre-encoded queries measures both
  engines over the same 8-scoring-block corpus and asserts the pooled
  engine clears ``PARALLEL_SERVE_MIN_SPEEDUP``.  The default floor is
  2x *when the box has >= 4 CPUs*; on smaller runners process
  parallelism cannot beat physics, so the floor auto-relaxes to a
  no-pathological-overhead check (recorded in the emitted JSON).
* **liveness across a hot swap** -- an HTTP client storm runs while an
  ingest builds and atomically publishes a new index generation.  Zero
  non-2xx responses are tolerated, every response must name exactly one
  of the two generations, and the swap counter must read exactly 1.

Correctness is cross-checked first: every pooled merged top-k must be
bit-for-bit identical (rows *and* scores) to the single-process
reference.  An HTTP queries/second ladder at 16 -> 64 -> 256 clients is
also reported, un-asserted (socket overhead is noisy on shared CI
runners).
"""

import base64
import json
import os
import threading
import time
import urllib.request

import numpy as np

from repro.api import (
    AsteriaEngine,
    EncodeRequest,
    EngineConfig,
    EngineServer,
    QueryRequest,
)
from repro.compiler.pipeline import compile_package
from repro.core.model import FunctionEncoding
from repro.index.ann import SCORE_BLOCK_ROWS, BruteForceIndex
from repro.index.store import EmbeddingStore
from repro.lang.generator import ProgramGenerator

from benchmarks.conftest import emit_bench_json, write_result

N_CPUS = len(os.sched_getaffinity(0))
N_WORKERS = 4
#: 8 shards of one scoring block each -> 2 shards per worker at 4
#: workers.  The pool's parallelism granularity is one shard (ranges are
#: cut at shard boundaries), so the corpus must span >= N_WORKERS shards
#: to use every worker.
N_ROWS = int(os.environ.get("PARALLEL_SERVE_ROWS", str(8 * SCORE_BLOCK_ROWS)))
N_CLIENTS = 16
QUERIES_PER_CLIENT = 6
HTTP_LADDER = (16, 64, 256)
HTTP_TOTAL_PER_RUNG = 256
MIN_SPEEDUP = float(os.environ.get(
    "PARALLEL_SERVE_MIN_SPEEDUP",
    # 4 sweep processes can only beat one on a multi-core box; on a
    # 1-2 core runner the pooled path pays IPC for no extra silicon,
    # so only assert it is not pathologically slower
    "2.0" if N_CPUS >= 4 else "0.3",
))
TOP_K = 10


def _fill_store(root, model, n_rows):
    dim = model.config.hidden_dim
    store = EmbeddingStore.create(root, dim=dim, shard_size=SCORE_BLOCK_ROWS)
    rng = np.random.default_rng(42)
    vectors = rng.normal(size=(n_rows, dim))
    for i in range(n_rows):
        store.add(FunctionEncoding(
            name=f"fn{i}", arch="x86", binary_name=f"lib{i % 31}",
            vector=vectors[i], callee_count=i % 9, ast_size=10 + i % 7,
        ))
    store.flush()
    return store, vectors


def _query_encodings(vectors, n):
    step = max(1, len(vectors) // (n + 1))
    return [
        FunctionEncoding(
            name=f"q{i}", arch="x86", binary_name="query",
            vector=vectors[(i + 1) * step], callee_count=i % 9,
            ast_size=12,
        )
        for i in range(n)
    ]


def _storm(engine, requests, n_clients, per_client):
    """Barrier-started client threads issuing round-robin queries."""
    barrier = threading.Barrier(n_clients + 1)
    errors = []

    def client(i):
        barrier.wait()
        try:
            for j in range(per_client):
                engine.query(requests[(i + j) % len(requests)])
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(n_clients)]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    assert not errors, errors
    return (n_clients * per_client) / elapsed


def _http_post(url, payload_bytes, timeout=300):
    request = urllib.request.Request(
        url, data=payload_bytes,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _http_storm(server, payloads, n_clients, total_requests):
    per_client = max(1, total_requests // n_clients)
    barrier = threading.Barrier(n_clients + 1)
    errors = []

    def client(i):
        barrier.wait()
        try:
            for j in range(per_client):
                status, _ = _http_post(
                    server.url + "/v1/query",
                    payloads[(i + j) % len(payloads)],
                )
                assert status == 200
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(n_clients)]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    assert not errors, errors[:3]
    return (n_clients * per_client) / elapsed


def test_parallel_serve(trained_asteria, tmp_path_factory):
    root = tmp_path_factory.mktemp("parallel-serve") / "idx"
    store, vectors = _fill_store(root, trained_asteria, N_ROWS)
    encodings = _query_encodings(vectors, 8)
    requests = [
        QueryRequest(encoding=e, top_k=TOP_K, threshold=None)
        for e in encodings
    ]

    single = AsteriaEngine(
        EngineConfig(index_root=str(root), serve_workers=1,
                     max_inflight=512),
        model=trained_asteria,
    )
    pooled = AsteriaEngine(
        EngineConfig(index_root=str(root), serve_workers=N_WORKERS,
                     max_inflight=512),
        model=trained_asteria,
    )

    server = None
    server_thread = None
    try:
        # correctness first: pooled merged top-k bit-for-bit (rows AND
        # scores) against the single-process reference sweep, computed
        # one query at a time and as one batch -- a score does not
        # depend on the batch or the range it is computed in
        reference_index = BruteForceIndex(
            trained_asteria, store.vectors().snapshot(),
            store.callee_counts(), calibrate=True,
        )
        batched = reference_index.top_k_batch(encodings, k=TOP_K)
        for request, in_batch in zip(requests, batched):
            expected = reference_index.top_k_batch(
                [request.encoding], k=TOP_K
            )[0]
            assert expected == in_batch
            result = pooled.query(request)
            assert result.generation == "."
            assert [(h.row, h.score) for h in result.hits] \
                == [(n.row, n.score) for n in expected], (
                f"pooled merge diverged from single-process for "
                f"{request.encoding.name}"
            )
        for result, expected in zip(pooled.query_batch(requests), batched):
            assert [(h.row, h.score) for h in result.hits] \
                == [(n.row, n.score) for n in expected]

        # throughput: same storm against both engines; single-process
        # first so the pooled engine cannot profit from anything it warms
        single.query(requests[0])  # warm the in-process index build
        single_qps = max(
            _storm(single, requests, N_CLIENTS, QUERIES_PER_CLIENT)
            for _round in range(2)
        )
        pooled_qps = max(
            _storm(pooled, requests, N_CLIENTS, QUERIES_PER_CLIENT)
            for _round in range(2)
        )
        speedup = pooled_qps / single_qps

        # HTTP ladder + hot-swap liveness against the pooled engine.
        # HTTP queries go through the real binary -> encode -> sweep path.
        package = ProgramGenerator(seed=77).generate_package("parallelq")
        binary = compile_package(package, "x86")
        fn_names = [
            e.name for e in
            pooled.encode(EncodeRequest(binary=binary)).encodings[:4]
        ]
        binary_b64 = base64.b64encode(binary.to_bytes()).decode("ascii")
        payloads = [
            json.dumps({
                "binary_b64": binary_b64, "function": name,
                "top_k": TOP_K,
            }).encode("utf-8")
            for name in fn_names
        ]

        server = EngineServer(("127.0.0.1", 0), pooled)
        server_thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        server_thread.start()
        http_qps = {}
        for n_clients in HTTP_LADDER:
            http_qps[n_clients] = _http_storm(
                server, payloads, n_clients, HTTP_TOTAL_PER_RUNG
            )

        # hot swap under load: a client storm runs while an ingest
        # builds and atomically publishes a new generation
        stop = threading.Event()
        statuses = []
        generations_seen = set()
        storm_errors = []

        def swap_client(i):
            j = 0
            while not stop.is_set():
                try:
                    status, body = _http_post(
                        server.url + "/v1/query",
                        payloads[(i + j) % len(payloads)],
                    )
                    statuses.append(status)
                    generations_seen.add(body["generation"])
                except Exception as exc:  # noqa: BLE001
                    storm_errors.append(repr(exc))
                    return
                j += 1

        clients = [
            threading.Thread(target=swap_client, args=(i,), daemon=True)
            for i in range(8)
        ]
        for t in clients:
            t.start()
        while len(statuses) < 24:  # storm established on old generation
            time.sleep(0.05)
        swap_status, swap_body = _http_post(
            server.url + "/v1/ingest",
            json.dumps({"binary_b64": binary_b64}).encode("utf-8"),
        )
        assert swap_status == 200 and swap_body["n_rows_total"] > N_ROWS
        after_swap = len(statuses)
        while len(statuses) < after_swap + 24:  # and on the new one
            time.sleep(0.05)
        stop.set()
        for t in clients:
            t.join(timeout=60)
        with urllib.request.urlopen(
            server.url + "/healthz", timeout=60
        ) as response:
            health_status = response.status
            health = json.loads(response.read())
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
        if server_thread is not None:
            server_thread.join(timeout=10)
        single.close()
        pooled.close()

    n_swap_queries = len(statuses)
    n_failed = sum(1 for s in statuses if s != 200)
    swaps_total = pooled.obs.value("repro_index_swaps_total")

    lines = [
        f"corpus: {N_ROWS} rows in {store.n_shards} shards "
        f"({SCORE_BLOCK_ROWS}-row scoring blocks); {N_CPUS} CPU(s)",
        f"storm: {N_CLIENTS} clients x {QUERIES_PER_CLIENT} pre-encoded "
        f"queries each",
        "",
        f"{'engine':<28} {'queries/s':>10}",
        f"{'single-process (lock)':<28} {single_qps:>10.1f}",
        f"{f'pooled ({N_WORKERS} workers)':<28} {pooled_qps:>10.1f}",
        "",
        f"speedup: {speedup:.2f}x (required >= {MIN_SPEEDUP:g}x"
        + ("" if N_CPUS >= 4 else f"; floor relaxed: {N_CPUS} CPU(s)")
        + ")",
        "",
        "end-to-end HTTP ladder (reported only):",
    ]
    lines += [
        f"  {n_clients:>4} clients: {qps:>8.1f} queries/s"
        for n_clients, qps in http_qps.items()
    ]
    lines += [
        "",
        f"hot swap under load: {n_swap_queries} queries across the "
        f"flip, {n_failed} failed, generations seen: "
        f"{sorted(generations_seen)}, swaps: {swaps_total:g}",
        f"active generation after swap: {health['active_generation']}, "
        f"pool workers alive: {health['pool_workers_alive']}",
    ]
    # write diagnostics before any assert so the CI artifact survives
    # every failure class, not just the throughput one
    write_result("parallel_serve", "\n".join(lines))
    emit_bench_json(
        "parallel_serve",
        {
            "n_rows": N_ROWS,
            "n_cpus": N_CPUS,
            "n_workers": N_WORKERS,
            "n_clients": N_CLIENTS,
            "single_qps": single_qps,
            "pooled_qps": pooled_qps,
            "speedup": speedup,
            "http_qps": {str(k): v for k, v in http_qps.items()},
            "swap_queries": n_swap_queries,
            "swap_failed": n_failed,
            "swaps_total": swaps_total,
            "generations_seen": sorted(generations_seen),
        },
        floors={"min_speedup": MIN_SPEEDUP, "max_swap_failures": 0},
    )

    assert not storm_errors, storm_errors[:3]
    assert n_failed == 0, f"{n_failed} failed queries across the swap"
    assert generations_seen <= {".", "generations/gen-00001"}, (
        generations_seen
    )
    assert "generations/gen-00001" in generations_seen, (
        "storm never observed the new generation"
    )
    assert swaps_total == 1
    assert health_status == 200
    assert health["active_generation"] == 1
    assert health["pool_workers_alive"] == N_WORKERS
    assert speedup >= MIN_SPEEDUP, (
        f"pooled serving {speedup:.2f}x vs single-process "
        f"(required >= {MIN_SPEEDUP:g}x on {N_CPUS} CPU(s))"
    )
