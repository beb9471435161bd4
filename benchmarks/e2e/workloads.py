"""The four served-path workloads: inputs, corpus, ops, answer checks.

Each workload is a closed loop (callers of a vulnerability search are
scripts that wait for the reply) against a fresh server in a fresh work
directory.  Inputs come from the run's ``--seed`` only; the server sees
nothing but the generated binaries and corpus.

=============  =========================================================
ingest_cold    the paper's offline phase: distinct binaries, one
               ``POST /v1/ingest`` each, durable index + cold cache
query_online   the paper's online phase, cross-architecture: ppc
               functions queried against an x86/arm corpus, 2 clients
scan_exact     firmware-scale search: the CVE library as one
               ``/v1/query_batch`` over a synthetic corpus, full sweep
scan_ann       same ops, ``--backend ivf-pq``: probe + int8 sweep +
               rerank instead of the sweep
=============  =========================================================
"""

from __future__ import annotations

import base64
import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import harness
import oracle
from harness import Client, Op, OpResult
from repro.binformat.binary import BinaryFile
from repro.compiler.pipeline import compile_package
from repro.core.model import Asteria
from repro.evalsuite.vulnsearch import CVE_LIBRARY
from repro.index.synth import SynthSpec, cluster_counts, distance_head_model
from repro.lang.generator import ProgramGenerator
from repro.utils.rng import derive_seed

TOP_K = 10
MODEL_DIM = 16
ARCHES = ("x86", "x64", "arm", "ppc")

#: ``topk_agreement`` below these fails the run.
AGREEMENT_FLOOR = {
    "ingest_cold": 0.99,
    "query_online": 0.99,
    "scan_exact": 0.99,
    "scan_ann": 0.90,
}


@dataclass(frozen=True)
class Sizes:
    """How much work a run does.  ``FULL`` is what ``BENCHMARK.json``
    measures; ``SMOKE`` drives the same code at toy sizes."""

    #: ``ingest_cold``: packages x 4 architectures, sent once each.  A
    #: fixed count capped by ``--seconds``: 200 binaries outlast a 20 s
    #: phase at today's ~115 ms per op.
    ingest_packages: int
    #: ``query_online``: corpus packages (x86 + arm each) and how many
    #: of them are also compiled for ppc as query binaries.
    corpus_packages: int
    query_packages: int
    #: ``scan_*``: rows of the synthetic corpus and rows per shard.
    synth_rows: int
    synth_shard_rows: int
    #: ``ingest_cold``: ingested functions queried back after the phase.
    verify_samples: int
    #: ``query_online``: distinct queries checked against the oracle.
    verify_queries: int
    #: Server spawn + warm-up is repeated this often per run and
    #: ``setup_s`` takes the median, because one spawn varied 0.6-1.0 s.
    setup_reps: int
    #: The traced run's fixed op counts (so its counts repeat exactly).
    trace_binaries: int
    trace_queries: int
    trace_batches: int
    #: Pool-versus-in-process query batches of the traced scan runs.
    trace_pool_batches: int


FULL = Sizes(
    ingest_packages=50, corpus_packages=14, query_packages=8,
    synth_rows=262144, synth_shard_rows=8192, verify_samples=32,
    verify_queries=48,
    setup_reps=3, trace_binaries=60, trace_queries=200, trace_batches=20,
    trace_pool_batches=5,
)
SMOKE = Sizes(
    ingest_packages=3, corpus_packages=3, query_packages=2,
    synth_rows=8192, synth_shard_rows=1024, verify_samples=8,
    verify_queries=8,
    setup_reps=1, trace_binaries=6, trace_queries=20, trace_batches=4,
    trace_pool_batches=2,
)


def make_model() -> Asteria:
    """The deterministic untrained encoder with the distance-monotone
    head: no training sits in set-up, and "nearest" is well defined."""
    return distance_head_model(MODEL_DIM)


def _package_binaries(
    seed: int, stream: str, index: int, arches: Sequence[str]
) -> List[BinaryFile]:
    name = f"{stream}{index:03d}"
    package = ProgramGenerator(
        seed=derive_seed(seed, "e2e", stream, index)
    ).generate_package(name)
    return [compile_package(package, arch) for arch in arches]


def _b64(binary: BinaryFile) -> str:
    return base64.b64encode(binary.to_bytes()).decode("ascii")


def _ingest_op(binary: BinaryFile, index: int) -> Op:
    body = json.dumps(
        {"binary_b64": _b64(binary), "image_id": f"img{index:04d}"}
    )
    return Op("/v1/ingest", body.encode(), key=index)


def _query_op(binary: BinaryFile, function: str, key) -> Op:
    body = json.dumps({
        "binary_b64": _b64(binary), "function": function, "top_k": TOP_K,
    })
    return Op("/v1/query", body.encode(), key=key)


def _hit_rows(result: Dict) -> List[int]:
    return [hit["row"] for hit in result["hits"]]


def read_corpus(index_dir: Path) -> Tuple[np.ndarray, np.ndarray]:
    """``(vectors, callee_counts)`` of a durable index, for the oracle.

    The one place the end-to-end path reads the system's storage: the
    HTTP API returns row ids, not vectors, so the rows the oracle
    scores have to come from the store's own reader.
    """
    from repro.index.store import EmbeddingStore

    store = EmbeddingStore.open(index_dir)
    return np.asarray(store.vectors()), np.asarray(store.callee_counts())


class Workload:
    """What :func:`run.run_once` needs from a workload."""

    name: str
    unit: str
    n_clients = 1
    cycle = True

    def __init__(self, seed: int, sizes: Sizes, work: Path, model_path: Path,
                 model: Asteria):
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.model_path = model_path
        self.model = model

    # set-up, in call order -------------------------------------------------

    def make_inputs(self) -> None:
        """Generate everything derived from the seed."""

    def build_corpus(self, server_cpu: Optional[int]) -> None:
        """Build what the server starts on (once per run)."""

    def serve_args(self, rep_dir: Path) -> List[str]:
        """``repro.cli serve`` arguments for one server lifecycle, after
        putting whatever that lifecycle starts from into ``rep_dir``."""
        raise NotImplementedError

    def warmup_ops(self) -> List[Op]:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    # after the timed phase ---------------------------------------------------

    def units(self, result: OpResult) -> int:
        """Work units one successful op completed."""
        return result.op.units

    def post_phase(self, client: Client, results: List[OpResult]) -> None:
        """Extra requests the answer check needs while the server is up."""

    def index_dir(self, rep_dir: Path) -> Path:
        raise NotImplementedError

    def agreements(
        self, results: List[OpResult], rep_dir: Path
    ) -> List[float]:
        """Top-k agreement with the oracle, one value per checked query."""
        raise NotImplementedError


# -- ingest_cold -----------------------------------------------------------


class IngestCold(Workload):
    name = "ingest_cold"
    unit = "functions"
    cycle = False

    def make_inputs(self) -> None:
        self.binaries: List[BinaryFile] = []
        for p in range(self.sizes.ingest_packages):
            self.binaries.extend(
                _package_binaries(self.seed, "ing", p, ARCHES)
            )
        self.warm_binary = _package_binaries(
            self.seed, "warm", 0, ("x86",)
        )[0]
        self._checks: List[Tuple[BinaryFile, str, List[int]]] = []

    def serve_args(self, rep_dir: Path) -> List[str]:
        return [
            "--model", str(self.model_path),
            "--index", str(rep_dir / "index"),
            "--cache-dir", str(rep_dir / "cache"),
        ]

    def index_dir(self, rep_dir: Path) -> Path:
        return rep_dir / "index"

    def warmup_ops(self) -> List[Op]:
        return [_ingest_op(self.warm_binary, 9999)]

    def ops(self) -> List[Op]:
        return [
            _ingest_op(binary, i) for i, binary in enumerate(self.binaries)
        ]

    def units(self, result: OpResult) -> int:
        return int(json.loads(result.response)["n_functions"])

    def post_phase(self, client: Client, results: List[OpResult]) -> None:
        """Query back a sample of the functions just ingested."""
        ingested = [result.op.key for result in results if result.ok]
        gen = np.random.default_rng(derive_seed(self.seed, "e2e", "verify"))
        for i in gen.choice(
            ingested, size=min(self.sizes.verify_samples, len(ingested)),
            replace=False,
        ):
            binary = self.binaries[int(i)]
            function = None
            for j in gen.permutation(len(binary.functions)):
                name = binary.functions[int(j)].display_name()
                if oracle.is_eligible(self.model, binary, name):
                    function = name
                    break
            if function is None:
                continue
            status, data, _ = client.request(
                "POST", "/v1/query",
                _query_op(binary, function, None).body,
            )
            served = _hit_rows(json.loads(data)) if status == 200 else []
            self._checks.append((binary, function, served))

    def agreements(self, results, rep_dir) -> List[float]:
        vectors, counts = read_corpus(self.index_dir(rep_dir))
        queries = [
            oracle.encode_query(self.model, binary, function)
            for binary, function, _served in self._checks
        ]
        reference = oracle.top_k_rows(
            self.model, queries, vectors, counts, TOP_K
        )
        return [
            oracle.agreement(served, ref)
            for (_b, _f, served), ref in zip(self._checks, reference)
        ]


# -- query_online ----------------------------------------------------------


class QueryOnline(Workload):
    name = "query_online"
    unit = "queries"
    n_clients = 2

    def make_inputs(self) -> None:
        self.corpus_binaries: List[BinaryFile] = []
        self.query_binaries: List[BinaryFile] = []
        for p in range(self.sizes.corpus_packages):
            wanted = ("x86", "arm", "ppc") \
                if p < self.sizes.query_packages else ("x86", "arm")
            compiled = _package_binaries(self.seed, "pkg", p, wanted)
            self.corpus_binaries.extend(compiled[:2])
            self.query_binaries.extend(compiled[2:])
        #: per query binary, the functions the system can encode
        self.functions = [
            oracle.eligible_functions(self.model, binary)
            for binary in self.query_binaries
        ]

    def build_corpus(self, server_cpu: Optional[int]) -> None:
        """Ingest the corpus over HTTP into the durable index every
        later server lifecycle of this run reopens."""
        ops = [
            _ingest_op(binary, i)
            for i, binary in enumerate(self.corpus_binaries)
        ]
        with harness.ServerProcess(
            self.serve_args(self.work), self.work / "corpus-server.log",
            cpu=server_cpu,
        ) as server:
            results, _ = harness.closed_loop(
                server.port, ops, 1, harness.OP_TIMEOUT_S * len(ops), False
            )
        done = [r for r in results if r.ok]
        if len(done) != len(ops):
            raise RuntimeError(
                f"corpus build: only {len(done)} of {len(ops)} ingests "
                f"succeeded"
            )

    def serve_args(self, rep_dir: Path) -> List[str]:
        return ["--model", str(self.model_path),
                "--index", str(self.work / "corpus")]

    def index_dir(self, rep_dir: Path) -> Path:
        return self.work / "corpus"

    def warmup_ops(self) -> List[Op]:
        """One query per query binary, so the timed phase never pays a
        first-query extraction (and the sweep index exists)."""
        return [
            _query_op(binary, self.functions[b][0], (b, 0))
            for b, binary in enumerate(self.query_binaries)
        ]

    def ops(self) -> List[Op]:
        """Op ``i`` queries binary ``i mod Q``, walking its functions."""
        n_binaries = len(self.query_binaries)
        rounds = max(len(names) for names in self.functions)
        ops = []
        for i in range(n_binaries * rounds):
            b = i % n_binaries
            f = (i // n_binaries) % len(self.functions[b])
            ops.append(
                _query_op(self.query_binaries[b], self.functions[b][f], (b, f))
            )
        return ops

    def agreements(self, results, rep_dir) -> List[float]:
        vectors, counts = read_corpus(self.index_dir(rep_dir))
        keys = sorted({r.op.key for r in results if r.ok})
        # the sequential encoder costs ~11 ms a query: check a seeded
        # sample of the distinct queries, in every reply that asked one
        gen = np.random.default_rng(derive_seed(self.seed, "e2e", "verify"))
        keys = [keys[i] for i in sorted(gen.choice(
            len(keys), size=min(self.sizes.verify_queries, len(keys)),
            replace=False,
        ))]
        queries = [
            oracle.encode_query(
                self.model, self.query_binaries[b], self.functions[b][f]
            )
            for b, f in keys
        ]
        reference = dict(zip(keys, oracle.top_k_rows(
            self.model, queries, vectors, counts, TOP_K
        )))
        return [
            oracle.agreement(
                _hit_rows(json.loads(r.response)), reference[r.op.key]
            )
            for r in results if r.ok and r.op.key in reference
        ]


# -- scan_exact / scan_ann -------------------------------------------------


class Scan(Workload):
    unit = "queries"
    backend: str
    #: the quantizer build must land in every lifecycle's warm-up, so
    #: each one starts from a copy of the corpus without an ANN artifact
    fresh_index_per_rep = False

    #: ``corpus synth --model`` anchors its first clusters on the real
    #: encodings of 4 seed packages x 2 architectures: at least this many
    ANCHORED_CLUSTERS = 128
    #: corpus seeds tried per run seed (1 in 6 is skipped, see below)
    CORPUS_SEED_TRIES = 8

    def make_inputs(self) -> None:
        self.cve_ids = [entry.cve_id for entry in CVE_LIBRARY]
        self.library = oracle.cve_queries(self.model)
        self.corpus_seed = self._well_posed_corpus_seed()

    def _well_posed_corpus_seed(self) -> int:
        """The first corpus seed of this run seed's own range on which
        the queries have near neighbours at all.

        Calibration multiplies a row's score by ``exp(-|callee count
        difference|)`` and the synthetic clusters draw their counts at
        random, so a query only has near neighbours when one of the
        clusters anchored on real encodings drew *its* count.  On 1
        corpus seed in 6 none drew the CVE functions' count (0): the
        top-10 are then arbitrary rows at the far end of the score
        range, ivf-pq recall is anything from 0 to 1, and agreement
        says nothing about either backend.  Those corpora are skipped
        (over corpus seeds 0-79 this test predicted recall@10 = 1 with
        no miss).
        """
        wanted = {q.callee_count for q in self.library.values()}
        first = self.seed * self.CORPUS_SEED_TRIES
        for candidate in range(first, first + self.CORPUS_SEED_TRIES):
            anchored = cluster_counts(SynthSpec(
                n_functions=self.sizes.synth_rows, dim=MODEL_DIM,
                seed=candidate,
            ))[: self.ANCHORED_CLUSTERS]
            if all((anchored == count).any() for count in wanted):
                return candidate
        raise RuntimeError(f"no well-posed corpus seed from {first} on")

    def build_corpus(self, server_cpu: Optional[int]) -> None:
        """``repro-cli corpus synth``, anchored on real encodings."""
        command = [
            sys.executable, "-m", "repro.cli", "corpus", "synth",
            "--output", str(self.work / "corpus"),
            "--functions", str(self.sizes.synth_rows),
            "--dim", str(MODEL_DIM),
            "--shard-size", str(self.sizes.synth_shard_rows),
            "--model", str(self.model_path),
            "--seed", str(self.corpus_seed),
        ]
        done = subprocess.run(
            command, env=harness.child_env(), cwd=harness.ROOT,
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            raise RuntimeError(f"corpus synth failed: {done.stderr[-2000:]}")

    def index_dir(self, rep_dir: Path) -> Path:
        if self.fresh_index_per_rep:
            return rep_dir / "index"
        return self.work / "corpus"

    def serve_args(self, rep_dir: Path) -> List[str]:
        if self.fresh_index_per_rep:
            shutil.copytree(self.work / "corpus", rep_dir / "index")
        return ["--model", str(self.model_path),
                "--index", str(self.index_dir(rep_dir)),
                "--backend", self.backend]

    def _batch_op(self) -> Op:
        body = json.dumps({"queries": [
            {"cve": cve_id, "top_k": TOP_K} for cve_id in self.cve_ids
        ]})
        return Op("/v1/query_batch", body.encode(), units=len(self.cve_ids))

    def warmup_ops(self) -> List[Op]:
        # the first builds the sweep index (and, for ivf-pq, builds and
        # persists the quantizer); the second runs it warm
        return [self._batch_op(), self._batch_op()]

    def ops(self) -> List[Op]:
        return [self._batch_op()]

    def agreements(self, results, rep_dir) -> List[float]:
        vectors, counts = read_corpus(self.index_dir(rep_dir))
        reference = oracle.top_k_rows(
            self.model, [self.library[c] for c in self.cve_ids],
            vectors, counts, TOP_K,
        )
        values = []
        for r in results:
            if not r.ok:
                continue
            for served, ref in zip(
                json.loads(r.response)["results"], reference
            ):
                values.append(oracle.agreement(_hit_rows(served), ref))
        return values


class ScanExact(Scan):
    name = "scan_exact"
    backend = "exact"


class ScanAnn(Scan):
    name = "scan_ann"
    backend = "ivf-pq"
    fresh_index_per_rep = True


WORKLOADS = {
    cls.name: cls for cls in (IngestCold, QueryOnline, ScanExact, ScanAnn)
}
