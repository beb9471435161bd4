"""Ground-truth pair construction (paper §IV-B).

Functions compiled from the same source keep their names in the Buildroot
and OpenSSL datasets, so (binary name, function name) identifies a source
function: the same identity on two architectures forms a *homologous* pair
(label +1), different identities form *non-homologous* pairs (label -1).
Library leaf functions (``lib_*``) are excluded -- their bodies are
byte-identical across packages, which would inject label noise, just as the
paper excludes compiler-generated GOT functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.preprocess import DEFAULT_MIN_AST_SIZE, lcrs_columns
from repro.decompiler.hexrays import DecompiledFunction
from repro.nn.treebatch import TreeColumns
from repro.utils.rng import RNG

ARCH_COMBINATIONS: Tuple[Tuple[str, str], ...] = (
    ("x86", "arm"),
    ("x86", "ppc"),
    ("x86", "x64"),
    ("arm", "ppc"),
    ("arm", "x64"),
    ("ppc", "x64"),
)


@dataclass
class LabeledPair:
    """A ground-truth function pair."""

    first: DecompiledFunction
    second: DecompiledFunction
    label: int  # +1 homologous, -1 non-homologous

    @property
    def arch_combo(self) -> Tuple[str, str]:
        return (self.first.arch, self.second.arch)


@dataclass
class TreePair:
    """A preprocessed pair ready for the Siamese network; each side is one
    tree's preorder columns (:func:`~repro.core.preprocess.lcrs_columns`)."""

    t1: TreeColumns
    t2: TreeColumns
    label: int
    first: Optional[DecompiledFunction] = None
    second: Optional[DecompiledFunction] = None


def _function_key(fn: DecompiledFunction) -> Tuple[str, str]:
    return (fn.binary_name, fn.name)


def _eligible(fn: DecompiledFunction, min_ast_size: int, exclude_prefix: str) -> bool:
    if exclude_prefix and fn.name.startswith(exclude_prefix):
        return False
    return fn.ast_size() >= min_ast_size


def index_by_identity(
    corpus: Dict[str, Sequence[DecompiledFunction]],
    min_ast_size: int = DEFAULT_MIN_AST_SIZE,
    exclude_prefix: str = "lib_",
) -> Dict[Tuple[str, str], Dict[str, DecompiledFunction]]:
    """Group a per-arch corpus by (binary, function) identity."""
    identities: Dict[Tuple[str, str], Dict[str, DecompiledFunction]] = {}
    for arch, functions in corpus.items():
        for fn in functions:
            if not _eligible(fn, min_ast_size, exclude_prefix):
                continue
            identities.setdefault(_function_key(fn), {})[arch] = fn
    return identities


def build_cross_arch_pairs(
    corpus: Dict[str, Sequence[DecompiledFunction]],
    n_pairs_per_combo: int,
    combos: Sequence[Tuple[str, str]] = ARCH_COMBINATIONS,
    negative_ratio: float = 1.0,
    min_ast_size: int = DEFAULT_MIN_AST_SIZE,
    seed: int = 0,
    exclude_prefix: str = "lib_",
) -> List[LabeledPair]:
    """Sample labelled cross-architecture pairs.

    For each architecture combination, ``n_pairs_per_combo`` homologous
    pairs are sampled (or as many as exist) plus
    ``negative_ratio * n_pairs_per_combo`` non-homologous pairs whose two
    sides come from *different* source functions on the two architectures.
    """
    rng = RNG(seed)
    identities = index_by_identity(corpus, min_ast_size, exclude_prefix)
    pairs: List[LabeledPair] = []
    for combo in combos:
        arch_a, arch_b = combo
        combo_rng = rng.child("combo", arch_a, arch_b)
        available = [
            (key, fns)
            for key, fns in identities.items()
            if arch_a in fns and arch_b in fns
        ]
        if not available:
            continue
        available.sort(key=lambda item: item[0])
        n_pos = min(n_pairs_per_combo, len(available))
        chosen = combo_rng.sample(available, n_pos)
        for _key, fns in chosen:
            pairs.append(LabeledPair(fns[arch_a], fns[arch_b], +1))
        n_neg = int(round(n_pos * negative_ratio))
        for i in range(n_neg):
            neg_rng = combo_rng.child("neg", i)
            key_a, fns_a = neg_rng.choice(available)
            key_b, fns_b = neg_rng.choice(available)
            attempts = 0
            while key_a == key_b and attempts < 16:
                key_b, fns_b = neg_rng.child("retry", attempts).choice(available)
                attempts += 1
            if key_a == key_b:
                continue
            pairs.append(LabeledPair(fns_a[arch_a], fns_b[arch_b], -1))
    rng.shuffle(pairs)
    return pairs


def to_tree_pairs(
    pairs: Sequence[LabeledPair], min_ast_size: int = DEFAULT_MIN_AST_SIZE
) -> List[TreePair]:
    """Preprocess labelled pairs for training/evaluation.

    Pairs whose ASTs fall below the size threshold are dropped, as in the
    paper's dataset construction; no tree object is built.
    """
    out: List[TreePair] = []
    for pair in pairs:
        c1, c2 = lcrs_columns(pair.first.ast), lcrs_columns(pair.second.ast)
        if min(len(c1[0]), len(c2[0])) >= min_ast_size:
            out.append(TreePair(
                TreeColumns.single(*c1), TreeColumns.single(*c2), pair.label,
                first=pair.first, second=pair.second,
            ))
    return out


def split_pairs(
    pairs: Sequence, train_fraction: float = 0.8, seed: int = 0
) -> Tuple[list, list]:
    """Shuffle and split pairs (the paper uses an 8:2 train/test split)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    items = list(pairs)
    RNG(seed).shuffle(items)
    cut = int(len(items) * train_fraction)
    return items[:cut], items[cut:]
