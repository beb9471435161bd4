"""Binary Tree-LSTM (Tai et al. 2015), equations (1)-(7) of the paper.

Encodes binary trees bottom-up.  Each node combines its embedding ``e_k``
with the hidden/cell states of its left and right children through input,
output, and *two* forget gates (one per child), exactly as in the paper:

    f_kl = σ(W_f e_k + U_f_ll h_kl + U_f_lr h_kr + b_f)          (1)
    f_kr = σ(W_f e_k + U_f_rl h_kl + U_f_rr h_kr + b_f)          (2)
    i_k  = σ(W_i e_k + U_i_l h_kl + U_i_r h_kr + b_i)            (3)
    o_k  = σ(W_o e_k + U_o_l h_kl + U_o_r h_kr + b_o)            (4)
    u_k  = tanh(W_u e_k + U_u_l h_kl + U_u_r h_kr + b_u)         (5)
    c_k  = i_k ⊙ u_k + c_kl ⊙ f_kl + c_kr ⊙ f_kr                 (6)
    h_k  = o_k ⊙ tanh(c_k)                                       (7)

Leaf children states are initialised to all-zeros by default (the paper's
Figure 9 ablation compares all-zeros against all-ones; both are supported
via ``leaf_init``).  Encoding is iterative (explicit post-order stack) so
deep LCRS spines cannot overflow Python's recursion limit.

The cell exists twice: :meth:`BinaryTreeLSTM.node_forward`, the literal
equation-by-equation composition of autograd ops kept as the reference,
and :meth:`BinaryTreeLSTM.cell`, one fused autograd op with a hand-derived
backward.  The fused cell takes one node's vectors or a level's ``(n, .)``
rows, so the sequential encoder here and the level-batched trainer in
:mod:`repro.nn.treebatch` run the same forward and gradient code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Embedding
from repro.nn.module import Module, Parameter, glorot
from repro.nn.tensor import Tensor, stable_sigmoid
from repro.utils.rng import RNG

# Overflow-free logistic (sign-split form); the naive 1/(1+exp(-x)) emits
# RuntimeWarnings for strongly negative pre-activations.
_sigmoid = stable_sigmoid


@dataclass
class BinaryTreeNode:
    """A node of a binarised (left-child right-sibling) AST."""

    label: int
    left: Optional["BinaryTreeNode"] = None
    right: Optional["BinaryTreeNode"] = None

    def size(self) -> int:
        count = 0
        stack = [self]
        while stack:
            node = stack.pop()
            count += 1
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return count

    def postorder(self) -> Iterator["BinaryTreeNode"]:
        """Iterative post-order traversal (children before parents)."""
        stack: list = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
                continue
            stack.append((node, True))
            if node.right is not None:
                stack.append((node.right, False))
            if node.left is not None:
                stack.append((node.left, False))


# -- the columnar form ------------------------------------------------------------
#
# A binary tree as three parallel columns in preorder: ``labels[i]``, and
# the indices of node ``i``'s left and right child (-1 = absent).  Root is
# index 0 and every child follows its parent.  The LCRS preorder of a
# binarised AST is the n-ary preorder of the AST itself, which is what
# lets preprocessing emit these columns straight from the AST.


def flatten_tree(
    root: BinaryTreeNode,
) -> Tuple[List[int], List[int], List[int]]:
    """Flatten a binary tree into preorder label/left/right columns.

    Raises :class:`ValueError` on a node reachable through two parents
    (a shared-subtree DAG has no columnar form).
    """
    labels: List[int] = []
    lefts: List[int] = []
    rights: List[int] = []
    seen = set()
    stack = [(root, -1)]  # (node, index of the node it is the right child of)
    while stack:
        node, parent = stack.pop()
        if id(node) in seen:
            raise ValueError(
                "expected a tree, but a node is reachable through more than "
                "one parent (shared-subtree DAGs are unsupported; deep-copy "
                "the shared subtree first)"
            )
        seen.add(id(node))
        i = len(labels)
        if parent >= 0:
            rights[parent] = i
        labels.append(node.label)
        rights.append(-1)
        if node.right is not None:
            stack.append((node.right, i))
        if node.left is not None:
            lefts.append(i + 1)
            stack.append((node.left, -1))
        else:
            lefts.append(-1)
    return labels, lefts, rights


def unflatten_tree(
    labels: Sequence[int], lefts: Sequence[int], rights: Sequence[int]
) -> BinaryTreeNode:
    """Rebuild a tree from :func:`flatten_tree` columns."""
    nodes = [BinaryTreeNode(label) for label in labels]
    for node, left, right in zip(nodes, lefts, rights):
        if left >= 0:
            node.left = nodes[left]
        if right >= 0:
            node.right = nodes[right]
    return nodes[0]


class BinaryTreeLSTM(Module):
    """The AST encoder network N(T)."""

    def __init__(
        self,
        num_labels: int,
        embedding_dim: int = 16,
        hidden_dim: int = 64,
        leaf_init: str = "zero",
        seed: int = 0,
        fused: bool = True,
    ):
        """``fused=True`` uses the hand-derived single-op :meth:`cell` (an
        order of magnitude faster than the composed autograd ops, verified
        equivalent by tests); ``fused=False`` keeps the literal
        equation-by-equation reference implementation."""
        if leaf_init not in ("zero", "one"):
            raise ValueError("leaf_init must be 'zero' or 'one'")
        self.fused = fused
        rng = RNG(seed)
        self.num_labels = num_labels
        self.embedding_dim = embedding_dim
        self.hidden_dim = hidden_dim
        self.leaf_init = leaf_init
        self.embedding = Embedding(num_labels, embedding_dim, rng.child("emb"))

        def weight(name, rows, cols):
            return Parameter(glorot(rng.child(name), (rows, cols)))

        d, h = embedding_dim, hidden_dim
        # forget gates (shared W_f/b_f, per-child-pair U matrices)
        self.w_f = weight("w_f", d, h)
        self.u_f_ll = weight("u_f_ll", h, h)
        self.u_f_lr = weight("u_f_lr", h, h)
        self.u_f_rl = weight("u_f_rl", h, h)
        self.u_f_rr = weight("u_f_rr", h, h)
        self.b_f = Parameter(np.zeros(h))
        # input gate
        self.w_i = weight("w_i", d, h)
        self.u_i_l = weight("u_i_l", h, h)
        self.u_i_r = weight("u_i_r", h, h)
        self.b_i = Parameter(np.zeros(h))
        # output gate
        self.w_o = weight("w_o", d, h)
        self.u_o_l = weight("u_o_l", h, h)
        self.u_o_r = weight("u_o_r", h, h)
        self.b_o = Parameter(np.zeros(h))
        # cached state
        self.w_u = weight("w_u", d, h)
        self.u_u_l = weight("u_u_l", h, h)
        self.u_u_r = weight("u_u_r", h, h)
        self.b_u = Parameter(np.zeros(h))

    # -- node encoding -------------------------------------------------------

    def _leaf_state(self) -> Tensor:
        if self.leaf_init == "zero":
            return Tensor(np.zeros(self.hidden_dim))
        return Tensor(np.ones(self.hidden_dim))

    def node_forward(
        self,
        e: Tensor,
        h_l: Tensor,
        h_r: Tensor,
        c_l: Tensor,
        c_r: Tensor,
    ) -> Tuple[Tensor, Tensor]:
        """One Tree-LSTM cell step; returns ``(h_k, c_k)``."""
        f_l = (e @ self.w_f + h_l @ self.u_f_ll + h_r @ self.u_f_lr
               + self.b_f).sigmoid()
        f_r = (e @ self.w_f + h_l @ self.u_f_rl + h_r @ self.u_f_rr
               + self.b_f).sigmoid()
        i = (e @ self.w_i + h_l @ self.u_i_l + h_r @ self.u_i_r
             + self.b_i).sigmoid()
        o = (e @ self.w_o + h_l @ self.u_o_l + h_r @ self.u_o_r
             + self.b_o).sigmoid()
        u = (e @ self.w_u + h_l @ self.u_u_l + h_r @ self.u_u_r
             + self.b_u).tanh()
        c = i * u + c_l * f_l + c_r * f_r
        h = o * c.tanh()
        return h, c

    def cell(
        self,
        e: Tensor,
        h_l: Tensor,
        h_r: Tensor,
        c_l: Tensor,
        c_r: Tensor,
    ) -> Tensor:
        """Fused cell: same math as :meth:`node_forward`, one autograd op.

        Takes one node's vectors (``e`` is ``(d,)``, the states ``(h,)``)
        or a level's rows (``(n, d)`` and ``(n, h)``) and returns the
        stacked ``(2, h)`` or ``(2, n, h)`` tensor (row 0 = h, row 1 = c),
        so a single graph node carries both outputs.  The forward pass
        computes all gates with plain numpy; the backward closure applies
        the analytically derived LSTM-cell gradients, treating a node as
        one row: weight gradients are ``X.T @ dZ``, bias gradients row
        sums, and input gradients are reshaped back to their input's shape.
        """
        params = (
            self.w_f, self.u_f_ll, self.u_f_lr, self.u_f_rl, self.u_f_rr,
            self.b_f, self.w_i, self.u_i_l, self.u_i_r, self.b_i,
            self.w_o, self.u_o_l, self.u_o_r, self.b_o,
            self.w_u, self.u_u_l, self.u_u_r, self.b_u,
        )
        (w_f, u_f_ll, u_f_lr, u_f_rl, u_f_rr, b_f,
         w_i, u_i_l, u_i_r, b_i,
         w_o, u_o_l, u_o_r, b_o,
         w_u, u_u_l, u_u_r, b_u) = params
        ev, hl, hr, cl, cr = (t.data for t in (e, h_l, h_r, c_l, c_r))

        e_wf = ev @ w_f.data
        f_l = _sigmoid(e_wf + hl @ u_f_ll.data + hr @ u_f_lr.data + b_f.data)
        f_r = _sigmoid(e_wf + hl @ u_f_rl.data + hr @ u_f_rr.data + b_f.data)
        i = _sigmoid(ev @ w_i.data + hl @ u_i_l.data + hr @ u_i_r.data + b_i.data)
        o = _sigmoid(ev @ w_o.data + hl @ u_o_l.data + hr @ u_o_r.data + b_o.data)
        u = np.tanh(ev @ w_u.data + hl @ u_u_l.data + hr @ u_u_r.data + b_u.data)
        c = i * u + cl * f_l + cr * f_r
        tanh_c = np.tanh(c)
        h = o * tanh_c
        out_data = np.stack([h, c])

        inputs = (e, h_l, h_r, c_l, c_r)

        def backward(grad):
            dh, dc_out = grad.reshape(2, -1, self.hidden_dim)
            do = dh * tanh_c
            dc = dc_out + dh * o * (1.0 - tanh_c ** 2)
            di = dc * u
            du = dc * i
            df_l = dc * cl
            df_r = dc * cr
            if c_l.requires_grad:
                c_l._accumulate((dc * f_l).reshape(c_l.shape))
            if c_r.requires_grad:
                c_r._accumulate((dc * f_r).reshape(c_r.shape))
            dz_o = do * o * (1.0 - o)
            dz_i = di * i * (1.0 - i)
            dz_fl = df_l * f_l * (1.0 - f_l)
            dz_fr = df_r * f_r * (1.0 - f_r)
            dz_u = du * (1.0 - u ** 2)
            dz_f = dz_fl + dz_fr
            if e.requires_grad:
                e._accumulate((
                    dz_f @ w_f.data.T + dz_i @ w_i.data.T
                    + dz_o @ w_o.data.T + dz_u @ w_u.data.T
                ).reshape(e.shape))
            if h_l.requires_grad:
                h_l._accumulate((
                    dz_fl @ u_f_ll.data.T + dz_fr @ u_f_rl.data.T
                    + dz_i @ u_i_l.data.T + dz_o @ u_o_l.data.T
                    + dz_u @ u_u_l.data.T
                ).reshape(h_l.shape))
            if h_r.requires_grad:
                h_r._accumulate((
                    dz_fl @ u_f_lr.data.T + dz_fr @ u_f_rr.data.T
                    + dz_i @ u_i_r.data.T + dz_o @ u_o_r.data.T
                    + dz_u @ u_u_r.data.T
                ).reshape(h_r.shape))
            x_e, x_l, x_r = (x.reshape(len(dh), -1) for x in (ev, hl, hr))
            grads = [x_e.T @ dz_f, x_l.T @ dz_fl, x_r.T @ dz_fl,
                     x_l.T @ dz_fr, x_r.T @ dz_fr, dz_f.sum(axis=0)]
            for dz in (dz_i, dz_o, dz_u):
                grads += [x_e.T @ dz, x_l.T @ dz, x_r.T @ dz, dz.sum(axis=0)]
            for param, g in zip(params, grads):
                param._accumulate(g)

        return Tensor._op(out_data, inputs + params, backward)

    # -- tree encoding ------------------------------------------------------------

    def forward(self, tree: BinaryTreeNode) -> Tensor:
        """Encode a binary tree; the root hidden state is the encoding."""
        h_root, _c_root = self.encode_states(tree)
        return h_root

    def encode_states(self, tree: BinaryTreeNode) -> Tuple[Tensor, Tensor]:
        """Encode bottom-up, returning the root ``(h, c)``.

        ``tree`` must be a tree proper: child states are keyed by node
        identity and popped when consumed, so a node reachable through two
        parents (a shared-subtree DAG) would silently reuse stale or missing
        state.  Such inputs are rejected with a :class:`ValueError` instead;
        deep-copy shared subtrees before encoding.
        """
        leaf = (self._leaf_state(), self._leaf_state())
        states: Dict[int, Tuple[Tensor, Tensor]] = {}
        seen = set()
        for node in tree.postorder():
            if id(node) in seen:
                raise ValueError(
                    "encode_states requires a tree, but a node is reachable "
                    "through more than one parent (shared-subtree DAGs are "
                    "unsupported; deep-copy the shared subtree first)"
                )
            seen.add(id(node))
            e = self.embedding(node.label)
            if node.left is not None:
                h_l, c_l = states.pop(id(node.left))
            else:
                h_l, c_l = leaf
            if node.right is not None:
                h_r, c_r = states.pop(id(node.right))
            else:
                h_r, c_r = leaf
            if self.fused:
                hc = self.cell(e, h_l, h_r, c_l, c_r)
                states[id(node)] = hc[0], hc[1]
            else:
                states[id(node)] = self.node_forward(e, h_l, h_r, c_l, c_r)
        return states[id(tree)]
