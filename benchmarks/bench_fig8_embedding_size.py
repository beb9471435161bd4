"""Figure 8: impact of the embedding size (8 -> 128).

Retrains the model at each embedding dimension and reports test AUC.
Expected shape (paper: 0.982/0.985/0.983/0.980/0.976): all sizes perform
closely, with no monotone gain from larger embeddings -- 16 is chosen as
the accuracy/complexity sweet spot, and 128 shows mild overfitting.
"""

from repro.core import Asteria, AsteriaConfig, TrainConfig, Trainer

from benchmarks.conftest import emit_bench_json, write_result

EMBEDDING_SIZES = (8, 16, 32, 64, 128)


def test_fig8_embedding_size(benchmark, train_dev_pairs):
    train, dev = train_dev_pairs
    lines = [f"{'Dim':>5} {'best AUC':>9}"]
    aucs = {}
    for dim in EMBEDDING_SIZES:
        model = Asteria(AsteriaConfig(embedding_dim=dim, seed=dim))
        trainer = Trainer(model.siamese, TrainConfig(epochs=2, lr=0.05))
        history = trainer.train(train, dev)
        aucs[dim] = history.best_auc
        lines.append(f"{dim:>5} {history.best_auc:>9.4f}")
    write_result("fig8_embedding_size", "\n".join(lines))
    emit_bench_json(
        "fig8_embedding_size",
        {"auc_by_dim": {str(dim): auc for dim, auc in aucs.items()}},
        floors={"min_auc": 0.8, "max_auc_spread": 0.15},
    )

    # Shape: every size trains to a usable model, and the spread is small
    # (the paper's spread across sizes is under 0.01 AUC).
    assert all(auc > 0.8 for auc in aucs.values())
    assert max(aucs.values()) - min(aucs.values()) < 0.15

    model16 = Asteria(AsteriaConfig(embedding_dim=16))
    tree = model16.preprocess(train[0].first.ast)
    benchmark(model16.encode_tree, tree)
