"""Level-batched Tree-LSTM evaluation.

The per-tree path in :mod:`repro.nn.treelstm` issues one Python-level cell
call per node, each doing tiny ``(1, d) @ (d, h)`` matmuls -- the dominant
cost of the paper's offline phase.  The paper claims batching is impossible
because "Tree-LSTM computation depends on each AST's shape"; that is only
true *within a path from leaf to root*.  Nodes at the same **level**
(distance from their deepest descendant) have no data dependencies, across
subtrees and across *different trees alike*, so a whole batch of trees can
be evaluated as one set of stacked GEMMs per level -- the standard
SPINN-style batching trick.

Three pieces:

* :func:`compile_columns` / :func:`compile_batch` -- schedule trees given
  as preorder columns (:class:`TreeColumns`) into level-indexed numpy
  arrays (per level: label ids, child state rows with a leaf sentinel row,
  contiguous output rows), as size-sorted chunks or as one chunk in
  input order;
* :func:`encode_batch` -- the inference fast path: a per-call label
  projection table, then pure-numpy level loops over preallocated
  ``(n_nodes + 1, h)`` state buffers, zero autograd bookkeeping;
* :func:`encode_batch_states` -- the training path: the same level
  schedule, each level one call of the fused
  :meth:`~repro.nn.treelstm.BinaryTreeLSTM.cell` (the sequential
  encoder's cell) on ``(n, h)`` rows, with the embedding lookup taking
  the level's label array and child-state gradients scatter-adding back
  to the producing level.

Both paths are asserted numerically equivalent to the sequential
:meth:`BinaryTreeLSTM.encode_states` reference by the test suite.

Columns cannot express a shared-subtree DAG:
:func:`~repro.nn.treelstm.flatten_tree`, which turns an object tree into
columns, rejects one, as the sequential path does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import Tensor
from repro.nn.treelstm import BinaryTreeLSTM, _sigmoid

LEAF = -1  # sentinel level for an absent child


def _check_labels(labels: np.ndarray, num_labels: int) -> None:
    """Match the sequential Embedding.forward range check, once over a
    compiled batch's whole label column."""
    if labels.size and not (0 <= labels.min() and labels.max() < num_labels):
        bad = labels[(labels < 0) | (labels >= num_labels)][0]
        raise IndexError(
            f"embedding index {bad} out of range [0, {num_labels})"
        )


@dataclass
class LevelPlan:
    """All same-level nodes of a compiled batch: one GEMM set's inputs.

    ``children`` addresses each node's (left, right) child state as rows
    of one contiguous state buffer whose *last* row (``n_nodes``) holds
    the leaf state for absent children.  ``offset`` is the level's first
    row in that buffer.
    """

    labels: np.ndarray
    children: np.ndarray  # (n, 2) int64
    offset: int

    @property
    def left_global(self) -> np.ndarray:
        return self.children[:, 0]

    @property
    def right_global(self) -> np.ndarray:
        return self.children[:, 1]

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass
class CompiledBatch:
    """A batch of trees flattened into a level-parallel schedule."""

    levels: List[LevelPlan]
    root_global: np.ndarray
    n_nodes: int
    #: every node's label, in state-buffer row order (the levels' labels
    #: are slices of it)
    labels: np.ndarray

    @property
    def n_trees(self) -> int:
        return len(self.root_global)

    @cached_property
    def _level_starts(self) -> np.ndarray:
        return np.array([lv.offset for lv in self.levels], dtype=np.int64)

    def level_refs(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split state-buffer rows into (level, row within that level);
        the leaf sentinel row ``n_nodes`` maps to level :data:`LEAF`."""
        starts = self._level_starts
        level = np.searchsorted(starts, rows, side="right") - 1
        index = rows - starts[level]
        leaf = rows == self.n_nodes
        level[leaf] = LEAF
        index[leaf] = 0
        return level, index


@dataclass
class TreeColumns:
    """A batch of trees as concatenated preorder columns.

    Tree ``t`` is rows ``offsets[t]:offsets[t + 1]`` of ``labels``,
    ``lefts`` and ``rights``; child indices are tree-local, -1 = absent
    (the :func:`~repro.nn.treelstm.flatten_tree` form, which is also what
    the pipeline's ``trees`` artifacts store).  ``node_levels`` holds
    :meth:`levels` once computed; the trees sliced or concatenated from
    columns that know their levels know them too.
    """

    labels: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray
    offsets: np.ndarray  # (n_trees + 1,)
    node_levels: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def single(cls, labels, lefts, rights) -> "TreeColumns":
        """One tree's preorder columns (``lcrs_columns`` output)."""
        columns = (labels, lefts, rights, [0, len(labels)])
        return cls(*(np.asarray(c, dtype=np.int64) for c in columns))

    @classmethod
    def concat(cls, parts: Sequence["TreeColumns"]) -> "TreeColumns":
        """The trees of ``parts``, in order, as one batch."""
        if len(parts) == 1:
            return parts[0]
        sizes = np.concatenate([[0]] + [part.sizes for part in parts])
        names = ["labels", "lefts", "rights"]
        if parts and all(part.node_levels is not None for part in parts):
            names.append("node_levels")
        arrays = {
            name: np.concatenate([np.zeros(0, np.int64)]
                                 + [getattr(part, name) for part in parts])
            for name in names
        }
        return cls(offsets=np.cumsum(sizes, dtype=np.int64), **arrays)

    def tree(self, t: int) -> "TreeColumns":
        """Tree ``t`` alone, as one-tree columns (views, no copy)."""
        lo, hi = self.offsets[t], self.offsets[t + 1]
        return TreeColumns(
            self.labels[lo:hi], self.lefts[lo:hi], self.rights[lo:hi],
            np.array([0, hi - lo]),
            None if self.node_levels is None else self.node_levels[lo:hi],
        )

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def levels(self) -> np.ndarray:
        """Every node's level: the height of its subtree, leaves 0.

        One reverse pass, since a child's preorder index is always larger
        than its parent's; computed once, then kept in ``node_levels``.
        """
        if self.node_levels is not None:
            return self.node_levels
        base = np.repeat(self.offsets[:-1], self.sizes)
        rows = np.arange(len(self.labels))
        children = []
        for column in (self.lefts, self.rights):
            child = np.where(column >= 0, column + base, LEAF)
            if np.any((column >= 0) & (child <= rows)):
                raise ValueError("a child precedes its parent in preorder")
            children.append(child.tolist())
        n = len(rows)
        # level[n] is the absent child's LEAF, and index -1 reaches it
        level = [LEAF] * (n + 1)
        for i, left, right in zip(
            range(n - 1, -1, -1), reversed(children[0]), reversed(children[1])
        ):
            a, b = level[left], level[right]
            level[i] = (a if a > b else b) + 1
        self.node_levels = np.asarray(level[:n], dtype=np.int64)
        return self.node_levels


def _compile_chunk(
    columns: TreeColumns, levels: np.ndarray, indices: np.ndarray
) -> CompiledBatch:
    """Level-schedule trees ``indices`` of ``columns``, in that order.

    Nodes are stably sorted by level from (tree, preorder) order.  Two
    nodes on one level are never ancestor and descendant, and for such
    pairs preorder and postorder agree, so each level lists its nodes
    in (tree, postorder) order.
    """
    starts = columns.offsets[indices]
    sizes = columns.offsets[indices + 1] - starts
    n_nodes = int(sizes.sum())
    bases = np.cumsum(sizes) - sizes  # each tree's first chunk row
    nodes = np.arange(n_nodes) + np.repeat(starts - bases, sizes)
    node_levels = levels[nodes]
    order = np.argsort(node_levels, kind="stable")
    # chunk row -> state-buffer row; the extra last entry is the leaf
    # sentinel row n_nodes, which an absent child's -1 indexes
    row = np.empty(n_nodes + 1, dtype=np.int64)
    row[order] = np.arange(n_nodes)
    row[n_nodes] = n_nodes
    sorted_nodes = nodes[order]
    tree_base = np.repeat(bases, sizes)[order]
    pairs = np.stack(
        [columns.lefts[sorted_nodes], columns.rights[sorted_nodes]], axis=1
    )
    children = row[np.where(pairs >= 0, pairs + tree_base[:, None], -1)]
    labels = columns.labels[sorted_nodes]
    bounds = np.concatenate(
        [[0], np.cumsum(np.bincount(node_levels))]
    ).astype(np.int64).tolist()
    levels_out = [
        LevelPlan(labels=labels[lo:hi], children=children[lo:hi], offset=lo)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    return CompiledBatch(
        levels=levels_out, root_global=row[bases], n_nodes=n_nodes,
        labels=labels,
    )


def compile_batch(columns: TreeColumns) -> CompiledBatch:
    """Schedule all trees of ``columns`` as one chunk, in input order.

    A node's level is the height of its subtree (single nodes are level 0),
    so every node's children live at strictly lower levels and each level
    can be evaluated as one stacked cell application.
    """
    indices = np.arange(len(columns.offsets) - 1, dtype=np.int64)
    return _compile_chunk(columns, columns.levels(), indices)


# -- inference fast path -----------------------------------------------------

# Default row-block size for the inference GEMMs.  Every matmul is issued at
# exactly this many rows (the final block zero-padded), so BLAS always
# selects the same kernel and each output row is bit-for-bit identical no
# matter how the batch is composed -- encode at batch size 8 or 256 and get
# the same bytes.  Variable-row GEMMs do not have that property: BLAS falls
# back to different (differently-rounded) kernels for small row counts.
# :func:`resolve_block` picks the actual size (micro-probe / config);
# the choice is cached per process, so within one process the guarantee
# above still holds.
GEMM_BLOCK = 64

#: Candidate row-block sizes the one-time micro-probe times.
BLOCK_CANDIDATES = (16, 32, 64, 128, 256)

#: Default cap on nodes per compiled chunk.  Two ``(nodes, h)`` float64
#: state buffers at 8192x64 are ~8 MiB -- past that the level gathers fall
#: out of cache and throughput regresses (the old @256 cliff).
DEFAULT_NODE_BUDGET = 8192

#: ``(hidden_dim, dtype) -> block`` memo for the micro-probe, so the probe
#: runs once per process and every later encode uses the same block (which
#: is what keeps same-process results bit-for-bit reproducible).
_PROBED_BLOCKS: Dict[Tuple[int, str], int] = {}


#: Per-level row counts the micro-probe times each candidate over, weighted
#: the way real level profiles are: mostly small levels (near the roots
#: every level shrinks toward the batch size, and per-binary pipeline
#: batches are tiny), a few wide leaf-side ones.  Probing only a wide GEMM
#: would systematically favour blocks whose zero-padding waste then
#: dominates the small levels.
_PROBE_ROWS = (4,) * 8 + (16,) * 4 + (64,) * 2 + (200,) + (512,)


def _probe_block(hidden_dim: int, dtype: np.dtype) -> int:
    """Time each candidate block over a realistic level profile, pick best.

    The probed shape matches the hot per-level GEMM ``(n, 2h) @ (2h, 5h)``
    at each row count in ``_PROBE_ROWS``; the candidate minimising the
    summed time wins.  Takes the min of a few repetitions per candidate to
    shrug off scheduler noise; ~tens of milliseconds, once per
    (hidden_dim, dtype) per process.
    """
    w = np.full((2 * hidden_dim, 5 * hidden_dim), 0.5, dtype=dtype)
    mats = [
        np.full((rows, 2 * hidden_dim), 0.5, dtype=dtype)
        for rows in _PROBE_ROWS
    ]
    best_block, best_t = BLOCK_CANDIDATES[0], float("inf")
    for block in BLOCK_CANDIDATES:
        t = float("inf")
        for _rep in range(3):
            started = time.perf_counter()
            for a in mats:
                _blocked_mm(a, w, block)
            t = min(t, time.perf_counter() - started)
        if t < best_t:
            best_block, best_t = block, t
    return best_block


def resolve_block(
    block: int = 0, hidden_dim: int = 64, dtype=np.float64
) -> int:
    """The GEMM row-block size to use: explicit > micro-probe.

    ``block > 0`` wins outright (``EngineConfig.encode_block``); else the
    per-process micro-probe memo.  Concurrent first callers may each
    probe, but the first result stored is the one every caller gets.
    """
    if block:
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        return int(block)
    key = (int(hidden_dim), np.dtype(dtype).name)
    if key not in _PROBED_BLOCKS:
        _PROBED_BLOCKS.setdefault(key, _probe_block(key[0], np.dtype(dtype)))
    return _PROBED_BLOCKS[key]


def resolve_node_budget(budget: int = 0) -> int:
    """Nodes-per-chunk cap: explicit > :data:`DEFAULT_NODE_BUDGET`."""
    if budget:
        if budget < 1:
            raise ValueError(f"node budget must be >= 1, got {budget}")
        return int(budget)
    return DEFAULT_NODE_BUDGET


def _blocked_mm(a: np.ndarray, w: np.ndarray, block: int = GEMM_BLOCK) -> np.ndarray:
    """``a @ w`` computed in fixed ``(block, k)`` row blocks; only a
    ragged last block is copied into a zero-padded one."""
    n, k = a.shape
    full = n - n % block
    out = np.empty(
        (full if full == n else full + block, w.shape[1]),
        dtype=np.result_type(a, w),
    )
    for start in range(0, full, block):
        np.matmul(a[start:start + block], w, out=out[start:start + block])
    if full < n:
        tail = np.zeros((block, k), dtype=a.dtype)
        tail[:n - full] = a[full:]
        np.matmul(tail, w, out=out[full:])
    return out[:n]


@dataclass
class WeightPack:
    """The encoder's weights fused and cast once for the inference loop.

    ``w_all`` is the ``(d, 4h)`` embedding-side stack ``[W_f, W_i, W_o,
    W_u]`` (one shared forget column block); ``u_lr`` is the ``(2h, 5h)``
    child-side stack -- top half the left-child matrices, bottom half the
    right-child ones, columns ``[f_l, f_r, i, o, u]`` -- so one
    ``[H_L | H_R] @ u_lr`` GEMM replaces the former two; ``bias`` is the
    matching ``(5h,)`` row ``[b_f, b_f, b_i, b_o, b_u]``.
    """

    dtype: np.dtype
    emb: np.ndarray
    w_all: np.ndarray
    u_lr: np.ndarray
    bias: np.ndarray
    leaf: np.ndarray
    hidden_dim: int
    num_labels: int


def pack_weights(lstm: BinaryTreeLSTM, dtype=np.float64) -> WeightPack:
    """Fuse and cast the encoder weights for :func:`encode_batch`.

    Rebuilt per encode call (a handful of small hstacks) rather than
    memoized on the model, so in-place weight updates during training can
    never serve stale packs.
    """
    dt = np.dtype(dtype)
    w_all = np.hstack(
        [lstm.w_f.data, lstm.w_i.data, lstm.w_o.data, lstm.w_u.data]
    )
    u_left = np.hstack([
        lstm.u_f_ll.data, lstm.u_f_rl.data, lstm.u_i_l.data,
        lstm.u_o_l.data, lstm.u_u_l.data,
    ])
    u_right = np.hstack([
        lstm.u_f_lr.data, lstm.u_f_rr.data, lstm.u_i_r.data,
        lstm.u_o_r.data, lstm.u_u_r.data,
    ])
    bias = np.concatenate([
        lstm.b_f.data, lstm.b_f.data, lstm.b_i.data,
        lstm.b_o.data, lstm.b_u.data,
    ])
    return WeightPack(
        dtype=dt,
        emb=lstm.embedding.weight.data.astype(dt, copy=False),
        w_all=w_all.astype(dt, copy=False),
        u_lr=np.vstack([u_left, u_right]).astype(dt, copy=False),
        bias=bias.astype(dt, copy=False),
        leaf=lstm._leaf_state().data.astype(dt, copy=False),
        hidden_dim=lstm.hidden_dim,
        num_labels=lstm.num_labels,
    )


def encode_batch(
    lstm: BinaryTreeLSTM,
    compiled: CompiledBatch,
    *,
    dtype=np.float64,
    block: int = 0,
    pack: Optional[WeightPack] = None,
    observer: Optional[Callable[[int, float], None]] = None,
) -> np.ndarray:
    """Encode a compiled batch to a ``(n_trees, h)`` root-h matrix.

    Pure numpy.  Once per call, every label's embedding-side gate
    pre-activations come from one blocked ``emb @ W`` GEMM (a label
    projection table).  Then per level: one gather of both children's
    states into a reused zero-padded buffer, one stacked ``(2h, 5h)``
    child-side GEMM, the level's rows of the projection table added, one
    sigmoid over all four gates, one contiguous write-back.  No autograd
    graph is built, so this is the path for corpus ingest, queries and
    evaluation.  Results are bit-for-bit identical regardless of batch
    composition (see :data:`GEMM_BLOCK`), and a table row is computed
    in a fixed-shape block, so it equals that label's row of any blocked
    ``emb[labels] @ W``.

    ``dtype`` selects the float64 reference path (default) or the float32
    fast path (weights cast once via :func:`pack_weights`); ``block=0``
    lets :func:`resolve_block` pick the GEMM row block.  ``observer``, if
    given, receives ``(level_rows, seconds)`` per evaluated level.
    """
    if pack is None:
        pack = pack_weights(lstm, dtype)
    h = pack.hidden_dim
    if compiled.n_trees == 0:
        return np.zeros((0, h), dtype=pack.dtype)
    _check_labels(compiled.labels, pack.num_labels)
    block = resolve_block(block, h, pack.dtype)
    h2, h3, h4 = 2 * h, 3 * h, 4 * h
    # per label, the embedding side of the (5h) gate columns [f_l, f_r,
    # i, o, u]; the W_f block feeds both forget gates
    z_e = _blocked_mm(pack.emb, pack.w_all, block)
    proj = np.concatenate([z_e[:, :h], z_e], axis=1)
    H = np.empty((compiled.n_nodes + 1, h), dtype=pack.dtype)
    C = np.empty_like(H)
    H[-1] = C[-1] = pack.leaf
    # the child-side GEMM input, padded to whole blocks; rows past a
    # level's own keep zeros or an earlier level's states, and their
    # products are never read (a row's result does not depend on its
    # neighbours)
    widest = max((level.size for level in compiled.levels), default=0)
    HLR = np.zeros((-(-widest // block) * block, h2), dtype=pack.dtype)

    for level in compiled.levels:
        started = time.perf_counter() if observer is not None else 0.0
        n = level.size
        children = level.children
        # "clip" writes straight into ``out`` ("raise" buffers a copy);
        # the compiler's row indices are always in range
        np.take(H, children, axis=0, out=HLR[:n].reshape(n, 2, h),
                mode="clip")
        Z = _blocked_mm(HLR[:-(-n // block) * block], pack.u_lr, block)[:n]
        Z += proj[level.labels]
        Z += pack.bias
        G = _sigmoid(Z[:, :h4])
        u = np.tanh(Z[:, h4:])
        CLR = C[children].reshape(n, h2)  # a fresh copy: scale in place
        CLR *= G[:, :h2]
        end = level.offset + n
        c = C[level.offset:end]
        np.multiply(G[:, h2:h3], u, out=c)
        c += CLR[:, :h]
        c += CLR[:, h:]
        np.tanh(c, out=u)
        np.multiply(G[:, h3:h4], u, out=H[level.offset:end])
        if observer is not None:
            observer(n, time.perf_counter() - started)
    return H[compiled.root_global]


# -- size-sorted batch scheduling --------------------------------------------


@dataclass
class CompiledChunk:
    """One scheduler chunk: which input trees it covers, compiled."""

    indices: np.ndarray  # rows of the caller's tree list, int64
    batch: CompiledBatch


@dataclass
class CompiledPlan:
    """A full input's encode schedule: size-sorted compiled chunks.

    Model-independent: it holds tree structure only, no weights.
    """

    chunks: List[CompiledChunk]
    n_trees: int


def plan_chunks(
    sizes: Sequence[int],
    batch_size: int,
    node_budget: int = 0,
) -> List[np.ndarray]:
    """Partition tree indices into encode chunks.

    Trees are stably sorted by node count first, so each chunk holds
    similarly-sized trees (less per-level padding waste, and deep outliers
    stop serializing whole batches).  Chunks are cut at ``batch_size``
    trees or ``node_budget`` total nodes, whichever comes first, which
    keeps the flattened state buffers cache-resident no matter how wide
    the caller's batch is.  Per-tree results do not depend on the
    partition (fixed GEMM row blocks), so any chunking produces
    bit-for-bit identical vectors to :func:`compile_batch`'s one chunk.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    sizes = np.asarray(sizes, dtype=np.int64)
    budget = resolve_node_budget(node_budget)
    order = np.argsort(sizes, kind="stable")
    chunks: List[np.ndarray] = []
    current: List[int] = []
    current_nodes = 0
    for idx in order:
        size = int(sizes[idx])
        if current and (
            len(current) >= batch_size or current_nodes + size > budget
        ):
            chunks.append(np.asarray(current, dtype=np.int64))
            current, current_nodes = [], 0
        current.append(int(idx))
        current_nodes += size
    if current:
        chunks.append(np.asarray(current, dtype=np.int64))
    return chunks


def compile_columns(
    columns: TreeColumns,
    batch_size: int,
    node_budget: int = 0,
) -> CompiledPlan:
    """Bucket + compile columnar trees into a reusable :class:`CompiledPlan`.

    Levels are computed once for all trees; each chunk is then a gather
    and a stable sort of its trees' nodes.
    """
    levels = columns.levels()
    sizes = columns.sizes
    return CompiledPlan(
        chunks=[
            CompiledChunk(
                indices=indices,
                batch=_compile_chunk(columns, levels, indices),
            )
            for indices in plan_chunks(sizes, batch_size, node_budget)
        ],
        n_trees=len(sizes),
    )


def encode_plan(
    lstm: BinaryTreeLSTM,
    plan: CompiledPlan,
    *,
    dtype=np.float64,
    block: int = 0,
    observer: Optional[Callable[[int, float], None]] = None,
) -> np.ndarray:
    """Encode a :class:`CompiledPlan`, scattering rows back to input order."""
    pack = pack_weights(lstm, dtype)
    out = np.empty((plan.n_trees, pack.hidden_dim), dtype=pack.dtype)
    for chunk in plan.chunks:
        out[chunk.indices] = encode_batch(
            lstm, chunk.batch, pack=pack, block=block, observer=observer
        )
    return out


# -- compiled-plan serialization ----------------------------------------------

#: Per-level int64 array fields of :class:`LevelPlan`, in storage order.
_LEVEL_FIELDS = ("labels", "left_global", "right_global")


def plan_to_state(plan: CompiledPlan) -> Dict[str, np.ndarray]:
    """Flatten a :class:`CompiledPlan` to named arrays (npz-storable).

    Per-chunk, each :class:`LevelPlan` array field is concatenated across
    levels with a ``level_sizes`` vector to split them back; level offsets
    and ``n_nodes`` are derivable so they are not stored.
    """
    state: Dict[str, np.ndarray] = {
        "n_chunks": np.asarray([len(plan.chunks)], dtype=np.int64),
        "n_trees": np.asarray([plan.n_trees], dtype=np.int64),
    }
    for ci, chunk in enumerate(plan.chunks):
        prefix = f"c{ci}_"
        batch = chunk.batch
        state[prefix + "indices"] = chunk.indices
        state[prefix + "level_sizes"] = np.asarray(
            [level.size for level in batch.levels], dtype=np.int64
        )
        for name in _LEVEL_FIELDS:
            state[prefix + name] = (
                np.concatenate([getattr(lv, name) for lv in batch.levels])
                if batch.levels else np.zeros(0, dtype=np.int64)
            )
        state[prefix + "root_global"] = batch.root_global
    return state


# -- training path -----------------------------------------------------------


def _gather_states(
    level_outputs: List[Tensor],
    src_level: np.ndarray,
    src_index: np.ndarray,
    leaf: np.ndarray,
) -> Tensor:
    """Gather one child side's ``(2, n, h)`` stacked (h, c) states.

    Sources are the already-computed per-level stacked outputs (row 0 = h,
    row 1 = c); ``src_level == LEAF`` rows take the constant leaf state.
    Backward scatter-adds the incoming gradient back into each producing
    level tensor.
    """
    n = len(src_level)
    out = np.empty((2, n, leaf.shape[0]))
    leaf_rows = src_level == LEAF
    if leaf_rows.any():
        out[:, leaf_rows, :] = leaf
    groups = []
    # children concentrate on few distinct levels (a deep spine has one),
    # so group by the levels actually present, not every prior level
    for m in np.unique(src_level):
        if m == LEAF:
            continue
        tensor = level_outputs[m]
        rows = np.nonzero(src_level == m)[0]
        out[:, rows, :] = tensor.data[:, src_index[rows], :]
        groups.append((tensor, rows, src_index[rows]))

    def backward(grad):
        for tensor, out_rows, src_rows in groups:
            if not tensor.requires_grad:
                continue
            full = np.zeros_like(tensor.data)
            for part in (0, 1):
                np.add.at(full[part], src_rows, grad[part, out_rows])
            tensor._accumulate(full)

    return Tensor._op(out, tuple(t for t, _r, _s in groups), backward)


def _gather_roots(
    level_outputs: List[Tensor],
    root_level: np.ndarray,
    root_index: np.ndarray,
    h_dim: int,
) -> Tensor:
    """Collect each tree's root hidden state into one ``(n_trees, h)``."""
    n = len(root_level)
    out = np.empty((n, h_dim))
    groups = []
    for m in np.unique(root_level):
        tensor = level_outputs[m]
        rows = np.nonzero(root_level == m)[0]
        out[rows] = tensor.data[0, root_index[rows]]
        groups.append((tensor, rows, root_index[rows]))

    def backward(grad):
        for tensor, out_rows, src_rows in groups:
            if not tensor.requires_grad:
                continue
            full = np.zeros_like(tensor.data)
            np.add.at(full[0], src_rows, grad[out_rows])
            tensor._accumulate(full)

    return Tensor._op(out, tuple(t for t, _r, _s in groups), backward)


def encode_batch_states(
    lstm: BinaryTreeLSTM, compiled: CompiledBatch
) -> Tensor:
    """Differentiable batch encoding: ``(n_trees, h)`` root hidden states.

    The training-path twin of :func:`encode_batch`: the same level schedule,
    but each level runs through the fused :meth:`BinaryTreeLSTM.cell` on
    ``(n, h)`` rows so gradients flow back to every parameter and
    minibatched training works through one stacked graph instead of
    per-node cell calls.
    """
    if compiled.n_trees == 0:
        return Tensor(np.zeros((0, lstm.hidden_dim)))
    leaf = lstm._leaf_state().data
    outputs: List[Tensor] = []
    for level in compiled.levels:
        e = lstm.embedding(level.labels)
        left = _gather_states(
            outputs, *compiled.level_refs(level.left_global), leaf
        )
        right = _gather_states(
            outputs, *compiled.level_refs(level.right_global), leaf
        )
        outputs.append(
            lstm.cell(e, left[0], right[0], left[1], right[1])
        )
    return _gather_roots(
        outputs, *compiled.level_refs(compiled.root_global), lstm.hidden_dim
    )
