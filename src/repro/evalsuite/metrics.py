"""Evaluation metrics (paper §IV-D): ROC, AUC, and the Youden index.

Implemented from scratch on numpy (no sklearn in the environment): the ROC
curve sweeps the decision threshold over all observed scores, and AUC is the
trapezoidal area under it.  The Youden index J = TPR - FPR picks the
vulnerability-search threshold (§V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


def _validate(labels: Sequence[int], scores: Sequence[float]):
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have the same length")
    if labels.size == 0:
        raise ValueError("empty input")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0/1")
    return labels, scores


def roc_curve(
    labels: Sequence[int], scores: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute (fpr, tpr, thresholds), threshold-descending.

    Points are computed at every distinct score, plus the (0,0) and (1,1)
    endpoints.
    """
    labels, scores = _validate(labels, scores)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need both positive and negative labels")
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    sorted_scores = scores[order]
    tps = np.cumsum(sorted_labels)
    fps = np.cumsum(1 - sorted_labels)
    # Keep only the last cumulative point of each distinct score.
    distinct = np.nonzero(np.diff(sorted_scores, append=np.nan))[0]
    tpr = np.concatenate([[0.0], tps[distinct] / n_pos])
    fpr = np.concatenate([[0.0], fps[distinct] / n_neg])
    thresholds = np.concatenate([[np.inf], sorted_scores[distinct]])
    return fpr, tpr, thresholds


def roc_auc(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Area under the ROC curve (trapezoidal rule)."""
    fpr, tpr, _thresholds = roc_curve(labels, scores)
    # numpy >= 2 renamed trapz to trapezoid
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(tpr, fpr))


def youden_threshold(labels: Sequence[int], scores: Sequence[float]) -> Tuple[float, float]:
    """Threshold maximising the Youden index J = TPR - FPR.

    Returns ``(threshold, J)``.
    """
    fpr, tpr, thresholds = roc_curve(labels, scores)
    j = tpr - fpr
    best = int(np.argmax(j))
    threshold = thresholds[best]
    if not np.isfinite(threshold):
        threshold = float(thresholds[1]) if len(thresholds) > 1 else 1.0
    return float(threshold), float(j[best])


@dataclass
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def tpr(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    @property
    def fpr(self) -> float:
        return self.fp / (self.fp + self.tn) if (self.fp + self.tn) else 0.0

    @property
    def accuracy(self) -> float:
        total = self.tp + self.fp + self.tn + self.fn
        return (self.tp + self.tn) / total if total else 0.0


def confusion_counts(
    labels: Sequence[int], scores: Sequence[float], threshold: float
) -> Confusion:
    """TP/FP/TN/FN at a threshold (score >= threshold is positive)."""
    labels, scores = _validate(labels, scores)
    predicted = scores >= threshold
    actual = labels == 1
    return Confusion(
        tp=int(np.sum(predicted & actual)),
        fp=int(np.sum(predicted & ~actual)),
        tn=int(np.sum(~predicted & ~actual)),
        fn=int(np.sum(~predicted & actual)),
    )


def tpr_at_fpr(labels: Sequence[int], scores: Sequence[float], fpr_cap: float) -> float:
    """Highest TPR achievable with FPR <= cap (paper quotes TPR at 5% FPR)."""
    fpr, tpr, _ = roc_curve(labels, scores)
    mask = fpr <= fpr_cap
    return float(tpr[mask].max()) if mask.any() else 0.0
