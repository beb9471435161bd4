"""AST preprocessing: digitisation and format transformation (paper §III-A).

Two steps precede Tree-LSTM encoding:

* **digitisation** -- every node is replaced by its Table-I integer label;
  variable names, constant values and string contents are dropped;
* **binarisation** -- the n-ary AST becomes a binary tree via the
  left-child right-sibling transformation: a node's first child becomes its
  left child, and each child's next sibling becomes that child's right
  child.

Both happen in one pass, :func:`lcrs_columns`, which emits the binary
tree in the columnar form of :func:`~repro.nn.treelstm.flatten_tree`:
the AST's n-ary preorder *is* the binary tree's preorder.  The pipeline
stores those columns; :func:`digitize` builds the object tree from them,
so there is one LCRS definition.

ASTs with fewer than ``min_size`` nodes are rejected (the paper removes AST
pairs with node count < 5).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.labels import NODE_LABELS
from repro.lang.nodes import Node
from repro.nn.treelstm import BinaryTreeNode, unflatten_tree

DEFAULT_MIN_AST_SIZE = 5


class PreprocessError(Exception):
    """Raised when an AST cannot be preprocessed (e.g. too small)."""


def lcrs_columns(ast: Node) -> Tuple[List[int], List[int], List[int]]:
    """Digitise and binarise an AST into preorder label/left/right columns.

    Iterative (a stack of open sibling groups), so arbitrarily wide or
    deep ASTs cannot overflow the Python stack.  ``len(labels)`` is the
    AST's node count.
    """
    label = NODE_LABELS
    labels = [label[ast.op]]
    lefts = [1 if ast.children else -1]
    rights = [-1]
    # [siblings, next one to visit, index of the previous one visited]
    groups = [[ast.children, 0, -1]]
    while groups:
        group = groups[-1]
        siblings, k, previous = group
        if k == len(siblings):
            groups.pop()
            continue
        node = siblings[k]
        i = len(labels)
        if previous >= 0:
            rights[previous] = i
        group[1] = k + 1
        group[2] = i
        labels.append(label[node.op])
        rights.append(-1)
        if node.children:
            lefts.append(i + 1)
            groups.append([node.children, 0, -1])
        else:
            lefts.append(-1)
    return labels, lefts, rights


def digitize(ast: Node) -> BinaryTreeNode:
    """Digitise and binarise an AST into a :class:`BinaryTreeNode` tree."""
    return unflatten_tree(*lcrs_columns(ast))


# Alias: the binarisation *is* the LCRS transform.
to_binary_tree = digitize


def preprocess_ast(
    ast: Node, min_size: int = DEFAULT_MIN_AST_SIZE
) -> BinaryTreeNode:
    """Full preprocessing; raises :class:`PreprocessError` on tiny ASTs."""
    columns = lcrs_columns(ast)
    size = len(columns[0])
    if size < min_size:
        raise PreprocessError(
            f"AST has {size} nodes, below the minimum of {min_size}"
        )
    return unflatten_tree(*columns)


def try_preprocess_ast(
    ast: Node, min_size: int = DEFAULT_MIN_AST_SIZE
) -> Optional[BinaryTreeNode]:
    """Like :func:`preprocess_ast` but returns None instead of raising."""
    try:
        return preprocess_ast(ast, min_size)
    except PreprocessError:
        return None
