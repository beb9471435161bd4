"""Model training (paper §IV-A).

Settings follow the paper: BCE loss on the softmax output against one-hot
labels, AdaGrad optimiser.  Calibration is *not* applied during training,
so the Tree-LSTM learns pure AST semantics.

The paper trains at batch size 1, claiming Tree-LSTM computation "depends
on each AST's shape, so batching is not possible".  That only holds along a
leaf-to-root path: same-level nodes across many trees are independent, so
:class:`TrainConfig.batch_size` > 1 compiles the ``2B`` trees of a
minibatch -- pairs hold them as preorder columns -- into one level-batched
chunk (:mod:`repro.nn.treebatch`): stacked per-level GEMMs, with the mean
pair loss backpropagated through the same analytic cell gradients.  The
default of 1 rebuilds each pair's trees for the sequential encoder and
preserves the paper-faithful per-pair behaviour exactly.

The trainer evaluates AUC on a held-out pair set after each epoch and keeps
the best-performing weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.pairs import TreePair
from repro.core.siamese import SiameseClassifier, SiameseRegression
from repro.nn.loss import bce_loss, mse_loss
from repro.nn.optim import AdaGrad
from repro.nn.tensor import no_grad
from repro.nn.treebatch import (
    TreeColumns,
    compile_batch,
    compile_columns,
    encode_batch_states,
    encode_plan,
)
from repro.nn.treelstm import BinaryTreeNode, unflatten_tree
from repro.utils.logging import get_logger
from repro.utils.rng import RNG

_LOG = get_logger("core.training")


@dataclass
class TrainConfig:
    """Training hyperparameters.

    The paper trains 60 epochs on ~1M pairs; at reproduction scale a handful
    of epochs on thousands of pairs converges, so the default is modest.

    ``batch_size`` is the number of *pairs* per optimiser step.  1 (the
    default) is the paper's setting and walks each pair's trees node by
    node; larger values stack all ``2 * batch_size`` trees through the
    level-batched encoder and step on the mean pair loss.
    """

    epochs: int = 10
    lr: float = 0.05
    batch_size: int = 1


def _tree(columns: TreeColumns) -> BinaryTreeNode:
    """One-tree columns as the sequential encoder's object tree."""
    return unflatten_tree(columns.labels.tolist(), columns.lefts.tolist(),
                          columns.rights.tolist())


def _pair_columns(pairs: Sequence[TreePair]) -> TreeColumns:
    """Both trees of every pair, in pair order (rows ``2j``, ``2j + 1``)."""
    return TreeColumns.concat([t for p in pairs for t in (p.t1, p.t2)])


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    auc: Optional[float]
    seconds: float


@dataclass
class TrainHistory:
    epochs: List[EpochStats] = field(default_factory=list)
    best_auc: float = 0.0
    best_epoch: int = -1

    def losses(self) -> List[float]:
        return [e.mean_loss for e in self.epochs]


class Trainer:
    """Trains a Siamese model on preprocessed tree pairs."""

    def __init__(self, siamese, config: Optional[TrainConfig] = None):
        self.siamese = siamese
        self.config = config or TrainConfig()
        self.optimizer = AdaGrad(siamese.parameters(), lr=self.config.lr)
        self._is_classifier = isinstance(siamese, SiameseClassifier)
        if not self._is_classifier and not isinstance(siamese, SiameseRegression):
            raise TypeError("siamese must be a SiameseClassifier or SiameseRegression")

    # -- single steps -----------------------------------------------------------

    def _pair_loss(self, output, pair: TreePair):
        """The head-appropriate loss of one pair's network output."""
        if self._is_classifier:
            target = np.array([1.0, 0.0]) if pair.label < 0 else np.array([0.0, 1.0])
            return bce_loss(output, target)
        target = 0.0 if pair.label < 0 else 1.0
        return mse_loss(output, target)

    def train_step(self, pair: TreePair) -> float:
        """One forward/backward/update on a single pair; returns the loss."""
        self.optimizer.zero_grad()
        output = self.siamese(_tree(pair.t1), _tree(pair.t2))
        loss = self._pair_loss(output, pair)
        loss.backward()
        self.optimizer.step()
        return float(loss.data)

    def train_step_batch(self, pairs: Sequence[TreePair]) -> float:
        """One update on a minibatch of pairs; returns the mean pair loss.

        All ``2B`` trees are encoded in one pass through the level-batched
        engine; the per-pair Siamese heads and losses (tiny ops on the root
        vectors) are then averaged into a single backward.
        """
        self.optimizer.zero_grad()
        roots = encode_batch_states(
            self.siamese.encoder, compile_batch(_pair_columns(pairs))
        )
        total = None
        for j, pair in enumerate(pairs):
            output = self.siamese.head(roots[2 * j], roots[2 * j + 1])
            loss = self._pair_loss(output, pair)
            total = loss if total is None else total + loss
        loss = total * (1.0 / len(pairs))
        loss.backward()
        self.optimizer.step()
        return float(loss.data)

    def score(self, pair: TreePair) -> float:
        """Inference similarity for one pair (sequential encoder)."""
        with no_grad():
            output = self.siamese(_tree(pair.t1), _tree(pair.t2))
            if self._is_classifier:
                return float(output.data[1])
            return float(output.data)

    def score_batch(self, pairs: Sequence[TreePair]) -> List[float]:
        """Inference similarities through the level-batched encoder.

        Equivalent to ``[self.score(p) for p in pairs]`` but encodes all
        trees of each chunk as stacked GEMMs, so epoch-end evaluation keeps
        pace with minibatched training.
        """
        plan = compile_columns(
            _pair_columns(pairs), 2 * max(self.config.batch_size, 32)
        )
        roots = encode_plan(self.siamese.encoder, plan)
        similarity = self.siamese.similarity_from_vectors
        return [similarity(roots[2 * j], roots[2 * j + 1])
                for j in range(len(pairs))]

    # -- full loop ------------------------------------------------------------------

    def train(
        self,
        train_pairs: Sequence[TreePair],
        eval_pairs: Sequence[TreePair] = (),
    ) -> TrainHistory:
        """Run the configured number of epochs, tracking best-AUC weights;
        unusable pair sets raise :class:`ValueError` before any step."""
        from repro.evalsuite.metrics import roc_auc

        batch_size = self.config.batch_size
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not train_pairs:
            raise ValueError("no training pairs")
        labels = [1 if p.label > 0 else 0 for p in eval_pairs]
        if len(set(labels)) == 1:  # AUC needs both classes
            raise ValueError("eval pairs lack a positive or a negative pair")
        history = TrainHistory()
        best_state = None
        rng = RNG(0)
        order = list(train_pairs)
        for epoch in range(self.config.epochs):
            started = time.perf_counter()
            rng.child("epoch", epoch).shuffle(order)
            losses = []
            for start in range(0, len(order), batch_size):
                batch = order[start:start + batch_size]
                loss = (self.train_step(batch[0]) if batch_size == 1
                        else self.train_step_batch(batch))
                # one entry per pair so epoch means stay per-pair means
                # even when the final batch is a short remainder
                losses.extend([loss] * len(batch))
            auc = None
            if eval_pairs:
                # the per-pair path stays literal at the paper's batch size 1
                if batch_size == 1:
                    scores = [self.score(p) for p in eval_pairs]
                else:
                    scores = self.score_batch(eval_pairs)
                auc = roc_auc(labels, scores)
                if auc > history.best_auc:
                    history.best_auc = auc
                    history.best_epoch = epoch
                    best_state = self.siamese.state_dict()
            history.epochs.append(
                EpochStats(
                    epoch=epoch,
                    mean_loss=float(np.mean(losses)),
                    auc=auc,
                    seconds=time.perf_counter() - started,
                )
            )
            _LOG.info(
                "epoch %d done: loss=%.4f auc=%s",
                epoch, history.epochs[-1].mean_loss,
                f"{auc:.4f}" if auc is not None else "n/a",
            )
        if best_state is not None:
            self.siamese.load_state_dict(best_state)
        return history
