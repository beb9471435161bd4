"""The end-to-end Asteria model.

:class:`Asteria` bundles the Tree-LSTM encoder, the Siamese head, the
preprocessing settings and the calibration parameters behind one API:

* :meth:`Asteria.encode` -- offline phase: AST -> encoding vector;
* :meth:`Asteria.encode_function` -- offline phase for a decompiled
  function (vector + filtered callee count);
* :meth:`Asteria.ast_similarity` / :meth:`Asteria.similarity` -- online
  phase on cached encodings, with and without calibration;
* :meth:`Asteria.save` / :meth:`Asteria.load` -- checkpointing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.calibration import (
    DEFAULT_BETA,
    calibrated_similarity,
    filtered_callee_count,
)
from repro.core.labels import NUM_LABELS
from repro.core.preprocess import DEFAULT_MIN_AST_SIZE, preprocess_ast
from repro.core.siamese import SiameseClassifier, SiameseRegression
from repro.decompiler.hexrays import DecompiledFunction
from repro.lang.nodes import Node
from repro.nn.serialize import load_state, save_state
from repro.nn.tensor import no_grad
from repro.nn.treebatch import (
    CompiledPlan,
    TreeColumns,
    compile_columns as _compile_column_plan,
    encode_plan as _encode_tree_plan,
    resolve_block,
)
from repro.nn.treelstm import BinaryTreeLSTM, BinaryTreeNode, flatten_tree
from repro.obs.metrics import MetricsRegistry

#: Default number of trees stacked per level-batched encode call.  Large
#: enough to amortise per-level Python overhead into full GEMMs, small
#: enough to keep the flattened state buffers cache-friendly.
DEFAULT_ENCODE_BATCH_SIZE = 64

#: Default dtype of the batched inference path.  float64 is the reference
#: (bit-for-bit comparable with the sequential encoder); "float32" is the
#: fast path -- weights cast once per call, ~2x throughput, rankings
#: preserved (top-10 overlap vs float64 asserted by the test suite).
DEFAULT_ENCODE_DTYPE = "float64"


@dataclass
class AsteriaConfig:
    """Hyperparameters (defaults follow the paper's chosen settings)."""

    embedding_dim: int = 16
    hidden_dim: int = 64
    leaf_init: str = "zero"  # Figure 9: all-zeros beats all-ones
    head: str = "classification"  # Figure 9: beats "regression"
    min_ast_size: int = DEFAULT_MIN_AST_SIZE
    beta: int = DEFAULT_BETA
    seed: int = 0


@dataclass(frozen=True)
class FunctionEncoding:
    """Cached offline-phase output for one function.

    Frozen: the engine hands one memoized encoding to every query of its
    function (and to every CVE query), so no caller may rebind a field.
    """

    name: str
    arch: str
    binary_name: str
    vector: np.ndarray
    callee_count: int
    ast_size: int = 0


class Asteria:
    """The full model: encoder + Siamese head + calibration."""

    def __init__(self, config: Optional[AsteriaConfig] = None):
        self.config = config or AsteriaConfig()
        self.encoder = BinaryTreeLSTM(
            num_labels=NUM_LABELS,
            embedding_dim=self.config.embedding_dim,
            hidden_dim=self.config.hidden_dim,
            leaf_init=self.config.leaf_init,
            seed=self.config.seed,
        )
        if self.config.head == "classification":
            self.siamese = SiameseClassifier(self.encoder, seed=self.config.seed)
        elif self.config.head == "regression":
            self.siamese = SiameseRegression(self.encoder)
        else:
            raise ValueError(f"unknown head {self.config.head!r}")

    # -- offline phase -------------------------------------------------------

    def preprocess(self, ast: Node) -> BinaryTreeNode:
        return preprocess_ast(ast, self.config.min_ast_size)

    def encode_tree(self, tree: BinaryTreeNode) -> np.ndarray:
        """Encode a preprocessed binary tree to a vector."""
        with no_grad():
            return self.encoder(tree).data.copy()

    def encode(self, ast: Node) -> np.ndarray:
        """Preprocess + encode an AST."""
        return self.encode_tree(self.preprocess(ast))

    def encode_function(self, fn: DecompiledFunction) -> FunctionEncoding:
        """Offline phase for one decompiled function."""
        vector = self.encode(fn.ast)
        return FunctionEncoding(
            name=fn.name,
            arch=fn.arch,
            binary_name=fn.binary_name,
            vector=vector,
            callee_count=filtered_callee_count(fn.callees, self.config.beta),
            ast_size=fn.ast_size(),
        )

    def compile_plan(
        self,
        trees: Sequence[BinaryTreeNode],
        batch_size: int = DEFAULT_ENCODE_BATCH_SIZE,
        node_budget: int = 0,
    ) -> CompiledPlan:
        """:meth:`compile_columns` of flattened object trees.  Kept only
        for the benchmark replay (``benchmarks/e2e/layers.py``); it and
        :meth:`encode_batch` go with ROADMAP items 1 and 4(b)."""
        columns = [TreeColumns.single(*flatten_tree(t)) for t in trees]
        return self.compile_columns(
            TreeColumns.concat(columns), batch_size, node_budget
        )

    def compile_columns(
        self,
        columns: TreeColumns,
        batch_size: int = DEFAULT_ENCODE_BATCH_SIZE,
        node_budget: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> CompiledPlan:
        """Bucket + compile columnar trees into a model-independent plan.

        The scheduler stably sorts trees by node count and cuts chunks at
        ``batch_size`` trees or ``node_budget`` nodes (0 = the resolved
        default), so similarly-sized trees share chunks and the flattened
        state buffers stay cache-resident at any caller batch width.  The
        plan holds tree structure only -- no weights.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        plan = _compile_column_plan(columns, batch_size, node_budget)
        if registry is not None and plan.chunks:
            fill = registry.histogram("repro_encode_batch_fill")
            for chunk in plan.chunks:
                fill.observe(len(chunk.indices) / batch_size)
        return plan

    def encode_plan(
        self,
        plan: CompiledPlan,
        dtype=DEFAULT_ENCODE_DTYPE,
        block: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> np.ndarray:
        """Encode a :meth:`compile_columns` result to input-order vectors."""
        dt = np.dtype(dtype)
        observer = None
        if registry is not None:
            registry.counter("repro_encode_trees_total").inc(plan.n_trees)
            registry.gauge("repro_encode_block_rows").set(
                resolve_block(block, self.config.hidden_dim, dt)
            )
            level_seconds = registry.histogram("repro_encode_level_seconds")
            observer = lambda _rows, seconds: level_seconds.observe(seconds)
        return _encode_tree_plan(
            self.encoder, plan, dtype=dt, block=block, observer=observer
        )

    def encode_columns(
        self,
        columns: TreeColumns,
        batch_size: int = DEFAULT_ENCODE_BATCH_SIZE,
        *,
        plan: Optional[CompiledPlan] = None,
        dtype=DEFAULT_ENCODE_DTYPE,
        block: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ) -> np.ndarray:
        """:meth:`compile_columns` (unless ``plan`` is their compiled
        schedule) + :meth:`encode_plan`: the served encoder."""
        if plan is None:
            plan = self.compile_columns(columns, batch_size, registry=registry)
        return self.encode_plan(plan, dtype=dtype, block=block,
                                registry=registry)

    def encode_batch(
        self,
        trees: Sequence[BinaryTreeNode],
        batch_size: int = DEFAULT_ENCODE_BATCH_SIZE,
        *,
        dtype=DEFAULT_ENCODE_DTYPE,
        block: int = 0,
    ) -> np.ndarray:
        """:meth:`compile_plan` + :meth:`encode_plan`, for the benchmark
        replay only (see :meth:`compile_plan`); everything else encodes
        columns (:meth:`encode_columns`)."""
        return self.encode_plan(
            self.compile_plan(trees, batch_size), dtype=dtype, block=block
        )

    # -- online phase ------------------------------------------------------------

    def ast_similarity(self, v1: np.ndarray, v2: np.ndarray) -> float:
        """M(T1, T2) from cached encoding vectors (no calibration)."""
        return self.siamese.similarity_from_vectors(v1, v2)

    def similarity(
        self, e1: FunctionEncoding, e2: FunctionEncoding, calibrate: bool = True
    ) -> float:
        """F(F1, F2) = M(T1, T2) x S(C1, C2) (or just M with calibrate=False).

        ``calibrate=False`` is the paper's Asteria-WOC ablation.
        """
        m = self.ast_similarity(e1.vector, e2.vector)
        if not calibrate:
            return m
        return calibrated_similarity(m, e1.callee_count, e2.callee_count)

    def similarity_matrix(
        self,
        queries: Sequence[FunctionEncoding],
        vectors: np.ndarray,
        callee_counts: Optional[np.ndarray] = None,
        calibrate: bool = True,
    ) -> np.ndarray:
        """F(queries, corpus) as one ``(q, n)`` score matrix.

        The matrix form of :meth:`similarity`: Q query encodings are
        scored against an ``(n, h)`` corpus matrix in one broadcasted pass
        through the Siamese head (batched GEMMs against the head weights)
        plus a vectorised ``(q, n)`` calibration term; ``callee_counts``
        aligns row-for-row with ``vectors`` when ``calibrate`` is set.
        This is what lets :meth:`AnnIndex.top_k_batch
        <repro.index.ann.AnnIndex.top_k_batch>` amortise a corpus sweep
        across every concurrent query instead of re-reading the corpus
        per query.
        """
        q_matrix = np.stack([np.asarray(q.vector) for q in queries])
        m = self.siamese.similarity_from_matrix(q_matrix, vectors)
        if not calibrate:
            return m
        if callee_counts is None:
            raise ValueError("calibrate=True requires callee_counts")
        counts = np.asarray(callee_counts, dtype=np.int64)
        q_counts = np.array(
            [q.callee_count for q in queries], dtype=np.int64
        )
        return m * np.exp(-np.abs(counts[None, :] - q_counts[:, None]))

    def compare_functions(
        self, f1: DecompiledFunction, f2: DecompiledFunction, calibrate: bool = True
    ) -> float:
        """Convenience: offline + online phases for one pair."""
        return self.similarity(
            self.encode_function(f1), self.encode_function(f2), calibrate
        )

    # -- identity ----------------------------------------------------------------

    def fingerprint(self) -> str:
        """Hex digest of this model's config and trained weights.

        The artifact cache keys encodings by it, so any weight update or
        hyperparameter change invalidates cached encodings (but not the
        model-independent cached ASTs).
        """
        hasher = hashlib.sha256()
        hasher.update(
            json.dumps(asdict(self.config), sort_keys=True).encode("utf-8")
        )
        state = self.siamese.state_dict()
        for name in sorted(state):
            array = np.ascontiguousarray(state[name])
            hasher.update(name.encode("utf-8"))
            hasher.update(str(array.dtype).encode("utf-8"))
            hasher.update(str(array.shape).encode("utf-8"))
            hasher.update(array.tobytes())
        return hasher.hexdigest()

    # -- checkpointing ----------------------------------------------------------------

    def save(self, path) -> None:
        save_state(path, self.siamese.state_dict(), meta=asdict(self.config))

    @classmethod
    def load(cls, path) -> "Asteria":
        state, meta = load_state(path)
        model = cls(AsteriaConfig(**meta))
        model.siamese.load_state_dict(state)
        return model
