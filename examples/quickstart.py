"""Quickstart: the whole paper workflow through one `AsteriaEngine`.

Walks the full pipeline at miniature scale, entirely over the unified
facade (`repro.api`):

1. train the Tree-LSTM Siamese model (`train_model`) and serve it from
   an engine (`AsteriaEngine(model=result.model)`);
2. ingest a cross-compiled corpus into the embedding index
   (`engine.ingest`);
3. run top-k similarity queries (`engine.query`);
4. compare one function across architectures (`engine.compare`);
5. save the checkpoint and reload it through `EngineConfig.model_path`.

Run:  python examples/quickstart.py
"""

from repro.api import (
    AsteriaEngine,
    CompareRequest,
    EncodeRequest,
    EngineConfig,
    IngestRequest,
    QueryRequest,
    TrainRequest,
    train_model,
)
from repro.evalsuite.datasets import build_buildroot_dataset


def main():
    print("1) training the Tree-LSTM Siamese model (paper defaults)...")
    result = train_model(TrainRequest(
        packages=4, pairs=15, epochs=2, seed=7,
        output_path="/tmp/asteria_quickstart.npz",
    ))
    print(f"   {result.n_train} training pairs, {result.n_dev} dev pairs")
    for epoch in result.history.epochs:
        print(f"   epoch {epoch.epoch}: loss={epoch.mean_loss:.4f} "
              f"auc={epoch.auc:.4f} ({epoch.seconds:.1f}s)")
    engine = AsteriaEngine(EngineConfig(), model=result.model)

    print("2) ingesting a cross-compiled corpus into the embedding index...")
    dataset = build_buildroot_dataset(n_packages=4, seed=7)
    binaries = [b for arch in sorted(dataset.binaries)
                for b in dataset.binaries[arch]]
    ingest = engine.ingest(IngestRequest(binaries=binaries))
    print(f"   {ingest.n_rows_total} functions indexed from "
          f"{ingest.n_binaries} binaries")

    print("3) querying: top-5 most similar corpus functions...")
    query_binary = dataset.binaries["x86"][0]
    fn = engine.encode(EncodeRequest(binary=query_binary)).encodings[0]
    result = engine.query(QueryRequest(
        binary=query_binary, function=fn.name, top_k=5,
    ))
    print(f"   query {result.query} over {result.n_rows} rows:")
    for rank, hit in enumerate(result.hits, start=1):
        print(f"   {rank}. score={hit.score:.4f} "
              f"{hit.binary_name} {hit.name} [{hit.arch}]")

    print("4) comparing the same function across architectures...")
    cmp = engine.compare(CompareRequest(
        binary1=dataset.binaries["x86"][0], function1=fn.name,
        binary2=dataset.binaries["arm"][0], function2=fn.name,
    ))
    print(f"   M (AST similarity)        = {cmp.ast_similarity:.4f}")
    print(f"   F (calibrated similarity) = {cmp.similarity:.4f}")

    print("5) reloading the checkpoint through EngineConfig...")
    restored = AsteriaEngine(
        EngineConfig(model_path="/tmp/asteria_quickstart.npz")
    )
    again = restored.compare(CompareRequest(
        binary1=dataset.binaries["x86"][0], function1=fn.name,
        binary2=dataset.binaries["arm"][0], function2=fn.name,
    ))
    print(f"   reloaded model reproduces the score: {again.similarity:.4f}")

    stats = engine.stats()
    print(f"engine stats: {stats.n_queries} queries, "
          f"{stats.index_rows} indexed rows, "
          f"cache {stats.cache_hits} hits / {stats.cache_misses} misses")


if __name__ == "__main__":
    main()
