"""Training a fresh model on the generated corpus (no engine involved)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.api.errors import BadRequestError
from repro.core.model import Asteria, AsteriaConfig
from repro.core.training import TrainConfig, Trainer, TrainHistory


@dataclass
class TrainRequest:
    """Train on the generated buildroot corpus (the paper's dataset)."""

    packages: int = 4
    pairs: int = 15
    epochs: int = 2
    embedding_dim: int = 16
    batch_size: int = 1
    lr: float = 0.05
    split: float = 0.8
    seed: int = 0
    output_path: Optional[str] = None


@dataclass
class TrainResult:
    n_train: int
    n_dev: int
    best_auc: float
    best_epoch: int
    history: TrainHistory
    model: Asteria
    model_path: Optional[str] = None


def train_model(request: TrainRequest) -> TrainResult:
    """Train a fresh model on the generated corpus.

    Serve the result with ``AsteriaEngine(model=result.model)``, or load
    ``request.output_path`` through ``EngineConfig.model_path``.
    """
    from repro.core.pairs import (
        build_cross_arch_pairs,
        split_pairs,
        to_tree_pairs,
    )
    from repro.evalsuite.datasets import build_buildroot_dataset

    dataset = build_buildroot_dataset(
        n_packages=request.packages, seed=request.seed
    )
    pairs = to_tree_pairs(
        build_cross_arch_pairs(
            dataset.functions, request.pairs, seed=request.seed
        )
    )
    train, dev = split_pairs(pairs, request.split, seed=request.seed)
    model = Asteria(AsteriaConfig(embedding_dim=request.embedding_dim))
    trainer = Trainer(
        model.siamese,
        TrainConfig(
            epochs=request.epochs,
            lr=request.lr,
            batch_size=request.batch_size,
        ),
    )
    try:
        history = trainer.train(train, dev)
    except ValueError as exc:  # no training pairs, or a one-class dev split
        raise BadRequestError(f"cannot train: {exc}") from exc
    if request.output_path:
        model.save(request.output_path)
    return TrainResult(
        n_train=len(train),
        n_dev=len(dev),
        best_auc=history.best_auc,
        best_epoch=history.best_epoch,
        history=history,
        model=model,
        model_path=request.output_path,
    )
