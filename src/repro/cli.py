"""Command-line interface: thin adapters over :class:`AsteriaEngine`.

Subcommands mirror the workflows a user of the paper's tooling would run:

* ``repro-cli generate``     -- generate a source package and print it;
* ``repro-cli compile``      -- cross-compile a generated package to RBIN;
* ``repro-cli disasm``       -- disassemble a binary file;
* ``repro-cli decompile``    -- decompile a binary file to pseudocode;
* ``repro-cli train``        -- train an Asteria model and save a checkpoint;
* ``repro-cli compare``      -- score two functions of two binaries;
* ``repro-cli search``       -- run the firmware vulnerability search;
* ``repro-cli pipeline run`` -- run the staged offline pipeline
  (unpack -> decompile -> preprocess -> encode -> in-memory index) over
  a firmware corpus, printing per-stage times and cache hit/miss
  accounting (``index build`` persists the index);
* ``repro-cli index build``  -- encode a firmware corpus into a persistent
  embedding index (the offline phase, run once);
* ``repro-cli index search`` -- top-k CVE queries against a built index
  (the online phase: one batched top-k pass for the whole CVE library,
  no corpus re-encoding);
* ``repro-cli corpus synth`` -- mass-produce a synthetic embedding corpus
  (cluster geometry with known ground-truth neighbors) for exercising
  the tiered ANN index at million-function scale;
* ``repro-cli serve``        -- the HTTP/JSON serving layer: one engine,
  concurrent queries micro-batched into shared encode GEMMs.

Every model/cache/index-touching subcommand builds one
:class:`~repro.api.config.EngineConfig` via ``EngineConfig.from_args``
and talks to one :class:`~repro.api.engine.AsteriaEngine`; a flag that
sets a config field is generated from the field
(:func:`~repro.api.config.add_config_flags`), only per-command flags are
written out here.  Engine errors surface as one-line ``error: ...``
messages with distinct exit codes: 3 = missing model, 4 = missing input
binary/firmware, 5 = index store problems, 6 = bad request (unknown
function/CVE, bad config).

Every command is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.api.config import EngineConfig, add_config_flags
from repro.api.engine import AsteriaEngine, load_binary
from repro.api.train import TrainRequest, train_model
from repro.api.types import CompareRequest, IngestRequest, QueryRequest
from repro.api.errors import (
    BadRequestError,
    EngineError,
    InputNotFoundError,
)
from repro.lang.generator import ProgramGenerator
from repro.lang.printer import to_source

#: ``search`` reproduces Table IV at its own, looser cutoff than the
#: 0.84 Youden threshold ``VulnerabilitySearch`` defaults to.
SEARCH_THRESHOLD = 0.8

_PIPELINE_FLAGS = ("jobs", "cache_dir", "encode_dtype", "encode_block")
_ANN_FLAGS = ("backend", "ann_nprobe", "ann_rerank", "ann_lists")
_STORE_FLAGS = ("shard_size", "store_dtype")


def _engine(args, **overrides) -> AsteriaEngine:
    """The one construction path every subcommand shares."""
    return AsteriaEngine(EngineConfig.from_args(args, **overrides))


def _cmd_generate(args) -> int:
    package = ProgramGenerator(seed=args.seed).generate_package(args.name)
    for fn in package.functions:
        print(to_source(fn))
        print()
    return 0


def _cmd_compile(args) -> int:
    from repro.compiler.pipeline import compile_package

    package = ProgramGenerator(seed=args.seed).generate_package(args.name)
    for arch in args.arch:
        binary = compile_package(package, arch)
        if args.strip:
            binary = binary.strip()
        path = Path(args.output) / f"{args.name}.{arch}.rbin"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(binary.to_bytes())
        print(f"wrote {path} ({len(binary.functions)} functions, "
              f"{path.stat().st_size} bytes)")
    return 0


def _cmd_disasm(args) -> int:
    from repro.disasm import disassemble_binary

    binary = load_binary(args.binary)
    for asm in disassemble_binary(binary):
        if args.function and asm.name != args.function:
            continue
        print(asm.render())
        print()
    return 0


def _cmd_decompile(args) -> int:
    from repro.decompiler import decompile_binary
    from repro.lang.printer import _stmt_lines

    binary = load_binary(args.binary)
    for fn in decompile_binary(binary, skip_errors=True):
        if args.function and fn.name != args.function:
            continue
        print(f"// {fn.name} ({fn.arch}, {fn.n_instructions} instructions, "
              f"{fn.ast_size()} AST nodes)")
        print("\n".join(_stmt_lines(fn.ast, 0)))
        print()
    return 0


def _cmd_train(args) -> int:
    result = train_model(TrainRequest(
        packages=args.packages,
        pairs=args.pairs,
        epochs=args.epochs,
        embedding_dim=args.dim,
        batch_size=args.train_batch_size,
        seed=args.seed,
        output_path=args.output,
    ))
    print(f"{result.n_train} training pairs, {result.n_dev} dev pairs")
    print(f"best dev AUC: {result.best_auc:.4f} "
          f"(epoch {result.best_epoch})")
    print(f"saved model to {result.model_path}")
    return 0


def _cmd_compare(args) -> int:
    engine = _engine(args)
    result = engine.compare(CompareRequest(
        binary1=args.binary1, function1=args.function1,
        binary2=args.binary2, function2=args.function2,
    ))
    print(f"M (AST similarity):        {result.ast_similarity:.4f}")
    print(f"F (calibrated similarity): {result.similarity:.4f}")
    return 0


def _cmd_search(args) -> int:
    from repro.evalsuite.vulnsearch import (
        VulnerabilitySearch,
        build_firmware_dataset,
    )

    engine = _engine(args)
    dataset = build_firmware_dataset(n_images=args.images, seed=args.seed)
    search = VulnerabilitySearch(engine=engine, threshold=args.threshold)
    engine.ingest(IngestRequest(images=dataset.images))
    report, _candidates = search.search(dataset, top_k=args.top_k)
    print(f"unpacked {report.n_unpacked}/{report.n_images} images, "
          f"indexed {report.n_functions} functions")
    for row in report.rows:
        print(f"{row.entry.cve_id:<15} {row.entry.software:<9} "
              f"confirmed={row.n_confirmed} "
              f"models={','.join(row.models) or '-'}")
    print(f"total confirmed: {report.total_confirmed()}")
    return 0


def _cmd_pipeline_run(args) -> int:
    result = _engine(args).ingest(IngestRequest(
        corpus_images=args.images, corpus_seed=args.seed
    ))
    print(result.summary())
    return 0


def _cmd_index_build(args) -> int:
    engine = _engine(args, index_root=args.output)
    engine.create_index(meta={"corpus": "firmware"})
    result = engine.ingest(IngestRequest(
        corpus_images=args.images, corpus_seed=args.seed
    ))
    n_unpackable = result.n_images - result.n_unpack_failures
    print(f"ingested {result.n_rows_total} functions from "
          f"{n_unpackable}/{result.n_images} unpackable images")
    print(f"wrote {engine.store.n_shards} shard(s) to {args.output}")
    return 0


def _cmd_index_search(args) -> int:
    engine = _engine(args)
    engine.open_index()
    library = engine.cve_library()
    wanted = set(args.cve) if args.cve else None
    if wanted:
        unknown = wanted - set(library)
        if unknown:
            print(f"error: unknown CVE id(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 6
    n_indexed = len(engine.store)
    selected = [
        (cve_id, entry)
        for cve_id, (entry, _encoding) in sorted(library.items())
        if wanted is None or cve_id in wanted
    ]
    # the whole CVE library is one batched top-k: every corpus shard is
    # swept once for all queries instead of once per CVE
    results = engine.query_batch([
        QueryRequest(cve_id=cve_id, top_k=args.top_k,
                     threshold=args.threshold)
        for cve_id, _entry in selected
    ])
    for (cve_id, entry), result in zip(selected, results):
        print(f"{cve_id} ({entry.software} {entry.function_name}), "
              f"top {len(result.hits)} of {n_indexed} indexed functions:")
        for rank, hit in enumerate(result.hits, start=1):
            print(f"  {rank:>2}. score={hit.score:.4f} {hit.image_id} "
                  f"{hit.binary_name} {hit.name} [{hit.arch}]")
    return 0


def _cmd_corpus_synth(args) -> int:
    from repro.index.store import EmbeddingStore
    from repro.index.synth import SynthSpec, seed_encodings, synth_corpus

    try:
        spec = SynthSpec(
            n_functions=args.functions, dim=args.dim,
            cluster_size=args.cluster_size, noise=args.noise,
            seed=args.seed,
        )
    except ValueError as exc:
        raise BadRequestError(str(exc)) from exc
    seeds = None
    engine = _engine(args)
    if args.model:
        hidden = engine.model.config.hidden_dim
        if hidden != args.dim:
            raise BadRequestError(
                f"--dim {args.dim} does not match the model's hidden "
                f"dim {hidden}"
            )
        seeds = seed_encodings(
            engine.pipeline, n_packages=args.seed_packages, seed=args.seed
        )
    store = EmbeddingStore.create(
        Path(args.output), dim=args.dim,
        shard_size=engine.config.shard_size,
        dtype=engine.config.store_dtype,
        meta={"corpus": "synthetic", "synth_seed": args.seed},
    )
    report = synth_corpus(store, spec, seeds=seeds)
    print(f"synthesized {report.n_functions} functions in "
          f"{report.n_clusters} clusters ({report.n_seed_centers} "
          f"anchored to pipeline encodings) in {report.elapsed_s:.1f}s")
    print(f"wrote {store.n_shards} shard(s) to {args.output}")
    return 0


def _cmd_serve(args) -> int:
    from repro.api.server import serve

    return serve(_engine(args), host=args.host, port=args.port)


def _cmd_stats(args) -> int:
    """Pretty-print a server's /v1/stats, or a local engine's stats."""
    if args.url:
        import urllib.error
        import urllib.request

        url = args.url.rstrip("/") + "/v1/stats"
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                data = json.loads(response.read())
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise InputNotFoundError(f"could not fetch {url}: {exc}")
    else:
        engine = _engine(args)
        if args.model:
            engine.model  # load so the stats reflect the checkpoint
        if args.index:
            engine.open_index()
        data = engine.stats().to_dict()
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    config = data.pop("config", {}) or {}
    width = max(len(key) for key in data)
    for key in sorted(data):
        print(f"{key:<{width}}  {data[key]}")
    if config:
        print("config:")
        sub_width = max(len(key) for key in config)
        for key in sorted(config):
            print(f"  {key:<{sub_width}}  {config[key]}")
    return 0


def _ints(least: int, most=None):
    """An argparse type: an int >= ``least`` (and <= ``most``, if set)."""
    bound = f">= {least}" if most is None else f"{least}-{most}"

    def parse(value: str) -> int:
        number = int(value)
        if number < least or most is not None and number > most:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {number}")
        return number

    parse.__name__ = "int"  # argparse's "invalid int value" names it
    return parse


#: per-command counts, seeds (numpy takes no negative one), TCP ports
_count, _seed, _port = _ints(1), _ints(0), _ints(0, 65535)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="Asteria reproduction command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a source package")
    p.add_argument("--name", default="pkg0")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("compile", help="cross-compile a generated package")
    p.add_argument("--name", default="pkg0")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--arch", nargs="+", default=["x86", "x64", "arm", "ppc"],
                   choices=["x86", "x64", "arm", "ppc"])
    p.add_argument("--strip", action="store_true",
                   help="remove the symbol table")
    p.add_argument("--output", default=".",
                   help="directory to write <name>.<arch>.rbin files "
                        "into (created if missing)")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("disasm", help="disassemble an RBIN binary")
    p.add_argument("binary")
    p.add_argument("--function", help="only this function")
    p.set_defaults(func=_cmd_disasm)

    p = sub.add_parser("decompile", help="decompile an RBIN binary")
    p.add_argument("binary")
    p.add_argument("--function", help="only this function")
    p.set_defaults(func=_cmd_decompile)

    p = sub.add_parser("train", help="train an Asteria model")
    p.add_argument("--packages", type=_count, default=4)
    p.add_argument("--pairs", type=_count, default=15)
    p.add_argument("--epochs", type=_count, default=2)
    p.add_argument("--dim", type=_count, default=16)
    p.add_argument("--batch-size", type=_count, default=1,
                   dest="train_batch_size",
                   help="pairs per optimiser step (1 = the paper's "
                        "per-pair setting; >1 uses the level-batched "
                        "Tree-LSTM engine)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output", default="asteria.npz")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("compare", help="compare two binary functions")
    add_config_flags(p, "model_path", required=["model_path"])
    p.add_argument("binary1")
    p.add_argument("function1")
    p.add_argument("binary2")
    p.add_argument("function2")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("search", help="firmware vulnerability search")
    add_config_flags(p, "model_path", *_PIPELINE_FLAGS,
                     required=["model_path"])
    p.add_argument("--images", type=_count, default=8)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--threshold", type=float, default=SEARCH_THRESHOLD)
    p.add_argument("--top-k", type=_count, default=None,
                   help="cap candidates per CVE (unset: all above "
                        "threshold)")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "pipeline", help="staged offline corpus pipeline"
    )
    pipeline_sub = p.add_subparsers(dest="pipeline_command", required=True)

    p = pipeline_sub.add_parser(
        "run",
        help="run unpack -> decompile -> preprocess -> encode -> index "
             "over a firmware corpus, reporting per-stage times and "
             "cache hits",
    )
    add_config_flags(p, "model_path", "encode_batch_size", *_PIPELINE_FLAGS,
                     required=["model_path"])
    p.add_argument("--images", type=_count, default=8)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_pipeline_run)

    p = sub.add_parser("index", help="persistent embedding index")
    index_sub = p.add_subparsers(dest="index_command", required=True)

    p = index_sub.add_parser(
        "build", help="encode a firmware corpus into a persistent index"
    )
    add_config_flags(p, "model_path", "encode_batch_size", *_STORE_FLAGS,
                     *_PIPELINE_FLAGS, required=["model_path"])
    p.add_argument("--output", required=True,
                   help="directory for the new index")
    p.add_argument("--images", type=_count, default=8)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_index_build)

    p = index_sub.add_parser(
        "search", help="top-k CVE queries against a built index"
    )
    add_config_flags(p, "model_path", "index_root", *_ANN_FLAGS,
                     required=["model_path", "index_root"])
    p.add_argument("--top-k", type=_count, default=10)
    p.add_argument("--threshold", type=float, default=None,
                   help="drop hits scoring below this (unset: keep the "
                        "full top-k)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--cve", nargs="*", default=None,
                   help="restrict to these CVE ids (unset: whole library)")
    p.set_defaults(func=_cmd_index_search)

    p = sub.add_parser("corpus", help="synthetic corpus tools")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)

    p = corpus_sub.add_parser(
        "synth",
        help="synthesize an embedding corpus with known ground-truth "
             "neighbor clusters (scales to millions of functions); with "
             "--model the first cluster centers are anchored at real "
             "pipeline encodings from that checkpoint, without it the "
             "corpus is pure bulk synthesis",
    )
    p.add_argument("--output", required=True,
                   help="directory for the new index")
    p.add_argument("--functions", type=_count, default=100_000)
    p.add_argument("--dim", type=_count, default=64,
                   help="embedding dimensionality (must match the model "
                        "that will query the corpus)")
    p.add_argument("--cluster-size", type=_count, default=16,
                   help="near-duplicate functions per ground-truth "
                        "cluster")
    p.add_argument("--noise", type=float, default=0.15,
                   help="intra-cluster perturbation scale")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--seed-packages", type=_count, default=4,
                   help="generated packages to compile + encode for the "
                        "seed set (with --model)")
    add_config_flags(p, "model_path", *_STORE_FLAGS, *_PIPELINE_FLAGS)
    p.set_defaults(func=_cmd_corpus_synth)

    p = sub.add_parser(
        "serve",
        help="HTTP/JSON serving layer (encode / ingest / query / stats)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=8080,
                   help="0 picks an ephemeral port (printed on startup)")
    p.add_argument("--seed", type=_seed, default=0)
    add_config_flags(
        p, "model_path", "index_root", "encode_batch_size",
        "micro_batch_size", "micro_batch_wait_ms", "slow_query_ms",
        "request_timeout_ms", "max_inflight", "drain_timeout_ms",
        "faults", *_ANN_FLAGS, *_PIPELINE_FLAGS,
        required=["model_path"],
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "stats",
        help="engine stats: a running server's /v1/stats (--url) or a "
             "snapshot of a local --model / --index",
    )
    p.add_argument("--url", default=None,
                   help="base URL of a running `repro-cli serve` "
                        "instance (e.g. http://127.0.0.1:8080)")
    add_config_flags(p, "model_path", "index_root")
    p.add_argument("--json", action="store_true",
                   help="print raw JSON instead of the aligned table")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # the reader left (`repro-cli generate | head`): point stdout at
        # devnull so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
