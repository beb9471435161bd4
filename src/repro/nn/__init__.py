"""A small reverse-mode autograd library on numpy.

The environment has no PyTorch, so the paper's model stack (``nn.Embedding``,
Binary Tree-LSTM, Siamese head, ``BCELoss``, AdaGrad) is implemented here
from scratch: a :class:`Tensor` with reverse-mode automatic differentiation,
:class:`Module` containers, layers, losses, and optimisers.

The paper claims Tree-LSTM shapes prevent batching; :mod:`repro.nn.treebatch`
shows otherwise -- same-level nodes across many trees have no data
dependencies, so whole batches evaluate as stacked per-level GEMMs (with a
sequential per-tree reference path kept for verification).
"""

from repro.nn.tensor import Tensor, concat, no_grad
from repro.nn.module import Module, Parameter
from repro.nn.layers import Embedding, Linear
from repro.nn.treelstm import BinaryTreeLSTM, BinaryTreeNode
from repro.nn.treebatch import (
    CompiledBatch,
    CompiledPlan,
    TreeColumns,
    WeightPack,
    compile_columns,
    compile_plan,
    compile_trees,
    encode_batch,
    encode_batch_states,
    encode_plan,
    pack_weights,
    plan_chunks,
    plan_from_state,
    plan_to_state,
    resolve_block,
    resolve_node_budget,
)
from repro.nn.graphnet import Structure2Vec
from repro.nn.loss import bce_loss, mse_loss, cosine_embedding_loss
from repro.nn.optim import SGD, AdaGrad, Adam
from repro.nn.serialize import save_state, load_state

__all__ = [
    "Tensor",
    "concat",
    "no_grad",
    "CompiledBatch",
    "CompiledPlan",
    "TreeColumns",
    "WeightPack",
    "compile_columns",
    "compile_plan",
    "compile_trees",
    "encode_batch",
    "encode_batch_states",
    "encode_plan",
    "pack_weights",
    "plan_chunks",
    "plan_from_state",
    "plan_to_state",
    "resolve_block",
    "resolve_node_budget",
    "Module",
    "Parameter",
    "Embedding",
    "Linear",
    "BinaryTreeLSTM",
    "BinaryTreeNode",
    "Structure2Vec",
    "bce_loss",
    "mse_loss",
    "cosine_embedding_loss",
    "SGD",
    "AdaGrad",
    "Adam",
    "save_state",
    "load_state",
]
