"""Single-binary stage functions shared by the corpus pipeline.

Each stage of the paper's offline phase is a pure function over one
binary (or one function), so the same code serves every consumer:

* :class:`~repro.pipeline.corpus.CorpusPipeline` composes the stages over
  whole corpora with artifact caching and worker pools;
* the per-function instrumentation in :mod:`repro.evalsuite.timing` times
  :func:`decompile_one` / :func:`preprocess_one` individually;
* ad hoc callers (datasets, CLI, tests) that need one stage in isolation.

:class:`ExtractedBinary` -- the combined Decompile + Preprocess output --
is a columnar, ndarray-backed value object: cheap to pickle across worker
process boundaries and directly serialisable into the artifact cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.binformat.binary import BinaryFile, FunctionRecord
from repro.binformat.binwalk import unpack_firmware
from repro.core.model import (
    DEFAULT_ENCODE_BATCH_SIZE,
    Asteria,
    FunctionEncoding,
)
from repro.core.preprocess import lcrs_columns, try_preprocess_ast
from repro.decompiler.hexrays import (
    DecompiledFunction,
    decompile_binary,
    decompile_function,
)
from repro.nn.treebatch import TreeColumns
from repro.nn.treelstm import BinaryTreeNode, unflatten_tree


# -- per-function building blocks --------------------------------------------------


def decompile_one(
    binary: BinaryFile, record: FunctionRecord
) -> DecompiledFunction:
    """Decompile stage for one function (raises :class:`DecompilationError`)."""
    return decompile_function(binary, record)


def preprocess_one(
    fn: DecompiledFunction, min_ast_size: int
) -> Optional[BinaryTreeNode]:
    """Preprocess stage for one function; None when the AST is too small."""
    return try_preprocess_ast(fn.ast, min_ast_size)


# -- whole-binary / whole-image stages ----------------------------------------------


def unpack_stage(image) -> List[BinaryFile]:
    """Unpack stage: firmware image -> embedded binaries.

    Raises :class:`~repro.binformat.binwalk.UnpackError` on unidentifiable
    formats, which the pipeline counts and skips.
    """
    return unpack_firmware(image)


def decompile_stage(
    binary: BinaryFile, skip_errors: bool = True
) -> List[DecompiledFunction]:
    """Decompile stage: every function of one binary."""
    return list(decompile_binary(binary, skip_errors=skip_errors))


# -- the extracted artifact ---------------------------------------------------------


@dataclass
class ExtractedBinary:
    """Decompile + Preprocess output for one binary, in columnar form.

    Everything the Encode stage needs and nothing model-specific: the
    preprocessed trees (flattened, concatenated), per-function metadata,
    and the raw callee instruction counts so the calibration filter can be
    applied for any β at encode time.
    """

    binary_name: str
    arch: str
    names: List[str]
    ast_sizes: np.ndarray  # (n,) source-AST node counts
    callee_sizes: np.ndarray  # flattened callee instruction counts
    callee_offsets: np.ndarray  # (n + 1,) offsets into callee_sizes
    labels: np.ndarray  # per-tree preorder node labels, concatenated
    lefts: np.ndarray  # tree-local child indices, -1 = absent
    rights: np.ndarray
    tree_offsets: np.ndarray  # (n + 1,) offsets into labels/lefts/rights
    n_decompiled: int = 0  # functions decompiled (pre size filter)
    n_skipped_small: int = 0
    decompile_s: float = 0.0
    preprocess_s: float = 0.0

    def __len__(self) -> int:
        return len(self.names)

    def columns(self) -> TreeColumns:
        """The preprocessed trees as the encoder's compile input."""
        return TreeColumns(
            self.labels, self.lefts, self.rights, self.tree_offsets
        )

    def trees(self) -> List[BinaryTreeNode]:
        """The preprocessed trees as objects (for per-tree callers)."""
        labels = self.labels.tolist()
        lefts = self.lefts.tolist()
        rights = self.rights.tolist()
        offsets = self.tree_offsets.tolist()
        return [
            unflatten_tree(labels[lo:hi], lefts[lo:hi], rights[lo:hi])
            for lo, hi in zip(offsets[:-1], offsets[1:])
        ]

    def filtered_callee_count(self, i: int, beta: int) -> int:
        """Size of function ``i``'s callee set after the inline filter."""
        lo = int(self.callee_offsets[i])
        hi = int(self.callee_offsets[i + 1])
        return int(np.count_nonzero(self.callee_sizes[lo:hi] >= beta))

    def encoding(
        self, i: int, vector: np.ndarray, beta: int
    ) -> FunctionEncoding:
        """Function ``i``'s encoding, given its tree's vector."""
        return FunctionEncoding(
            name=self.names[i], arch=self.arch,
            binary_name=self.binary_name, vector=vector,
            callee_count=self.filtered_callee_count(i, beta),
            ast_size=int(self.ast_sizes[i]),
        )


def extract_binary(binary: BinaryFile, min_ast_size: int) -> ExtractedBinary:
    """Decompile + Preprocess one binary (the pipeline's CPU-bound stages).

    Deterministic: function order follows the binary's function table, so
    serial and worker-pool executions produce identical artifacts.
    """
    started = time.perf_counter()
    fns = decompile_stage(binary)
    decompile_s = time.perf_counter() - started

    started = time.perf_counter()
    names: List[str] = []
    ast_sizes: List[int] = []
    callee_sizes: List[int] = []
    callee_offsets: List[int] = [0]
    labels: List[int] = []
    lefts: List[int] = []
    rights: List[int] = []
    tree_offsets: List[int] = [0]
    n_skipped = 0
    for fn in fns:
        tree_labels, tree_lefts, tree_rights = lcrs_columns(fn.ast)
        if len(tree_labels) < min_ast_size:
            n_skipped += 1
            continue
        names.append(fn.name)
        ast_sizes.append(len(tree_labels))
        callee_sizes.extend(size for _name, size in fn.callees)
        callee_offsets.append(len(callee_sizes))
        labels.extend(tree_labels)
        lefts.extend(tree_lefts)
        rights.extend(tree_rights)
        tree_offsets.append(len(labels))
    preprocess_s = time.perf_counter() - started

    return ExtractedBinary(
        binary_name=binary.name,
        arch=binary.arch,
        names=names,
        ast_sizes=np.asarray(ast_sizes, dtype=np.int64),
        callee_sizes=np.asarray(callee_sizes, dtype=np.int64),
        callee_offsets=np.asarray(callee_offsets, dtype=np.int64),
        labels=np.asarray(labels, dtype=np.int64),
        lefts=np.asarray(lefts, dtype=np.int64),
        rights=np.asarray(rights, dtype=np.int64),
        tree_offsets=np.asarray(tree_offsets, dtype=np.int64),
        n_decompiled=len(fns),
        n_skipped_small=n_skipped,
        decompile_s=decompile_s,
        preprocess_s=preprocess_s,
    )


def encode_stage(
    model: Asteria,
    extracted: ExtractedBinary,
    batch_size: int = DEFAULT_ENCODE_BATCH_SIZE,
    plan=None,
    dtype: str = "float64",
    block: int = 0,
    registry=None,
) -> List[FunctionEncoding]:
    """Encode stage: cached trees -> encodings via the level-batched engine.

    Bit-for-bit identical to encoding the same trees in any other chunking
    (the engine issues fixed-size GEMM blocks), which is what lets warm
    cache hits, serial runs and worker-pool runs interchange freely.

    ``plan`` is an optional precompiled
    :class:`~repro.nn.treebatch.CompiledPlan` for exactly these trees
    (the pipeline's ``ctrees`` cache); without one, the trees are
    bucketed and compiled here.  ``dtype``/``block`` select the inference
    dtype and GEMM row block (see :meth:`Asteria.encode_batch`).
    """
    if not len(extracted):
        return []
    vectors = model.encode_columns(
        extracted.columns(), batch_size, plan=plan, dtype=dtype,
        block=block, registry=registry,
    )
    beta = model.config.beta
    return [
        extracted.encoding(i, vectors[i].copy(), beta)
        for i in range(len(extracted))
    ]
