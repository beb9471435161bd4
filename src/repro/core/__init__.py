"""Asteria: AST-encoding based binary code similarity detection.

The paper's primary contribution.  Pipeline (paper Fig. 3):

1. AST extraction -- :mod:`repro.decompiler` (step 1);
2. preprocessing -- :mod:`repro.core.preprocess`: node digitisation per
   Table I and left-child right-sibling binarisation (step 2);
3. AST encoding -- Binary Tree-LSTM (:mod:`repro.nn.treelstm`) wrapped by
   :class:`~repro.core.siamese.SiameseClassifier` (steps 3-4);
4. similarity calibration with callee counts --
   :mod:`repro.core.calibration` (step 5).

:class:`~repro.core.model.Asteria` is the user-facing API tying it together.
"""

from repro.core.labels import NODE_LABELS, NUM_LABELS, label_of
from repro.core.preprocess import (
    PreprocessError,
    digitize,
    lcrs_columns,
    preprocess_ast,
    to_binary_tree,
)
from repro.core.siamese import SiameseClassifier, SiameseRegression
from repro.core.calibration import (
    callee_similarity,
    calibrated_similarity,
    filtered_callee_count,
)
from repro.core.model import Asteria, AsteriaConfig, FunctionEncoding
from repro.core.pairs import LabeledPair, TreePair, build_cross_arch_pairs, to_tree_pairs
from repro.core.training import TrainConfig, Trainer, TrainHistory

__all__ = [
    "NODE_LABELS",
    "NUM_LABELS",
    "label_of",
    "PreprocessError",
    "digitize",
    "lcrs_columns",
    "preprocess_ast",
    "to_binary_tree",
    "SiameseClassifier",
    "SiameseRegression",
    "callee_similarity",
    "calibrated_similarity",
    "filtered_callee_count",
    "Asteria",
    "AsteriaConfig",
    "FunctionEncoding",
    "LabeledPair",
    "TreePair",
    "build_cross_arch_pairs",
    "to_tree_pairs",
    "TrainConfig",
    "Trainer",
    "TrainHistory",
]
