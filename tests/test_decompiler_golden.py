"""Pinned decompiler and ACFG output over a fixed generated corpus.

The digests were computed when the CFG was a networkx ``DiGraph``; the
successor table and its Cooper-Harvey-Kennedy dominators must reproduce
every AST, and the Gemini ACFGs, bit for bit."""

import hashlib

import pytest

from repro.baselines.gemini.acfg import extract_acfg
from repro.compiler.pipeline import compile_package
from repro.decompiler import decompile_function
from repro.lang.generator import ProgramGenerator

ARCHES = ("x86", "x64", "arm", "ppc")

#: 4 packages x 4 architectures = 288 functions
AST_SHA256 = "f650f22451fdc2130ed72696bf50413d5c2306ee4c3ab1b1399b1dcd5bf83bbd"
ACFG_SHA256 = "3d5dadf508e13a368bce85edab45e5367d315080d60dc04557b96f553afc181f"


@pytest.fixture(scope="module")
def corpus():
    binaries = []
    for p in range(4):
        package = ProgramGenerator(seed=1000 + p).generate_package(f"p{p}")
        binaries.extend(compile_package(package, arch) for arch in ARCHES)
    return binaries


def _walk(hasher, root):
    """Preorder: op, value and child count of every node."""
    stack = [root]
    while stack:
        node = stack.pop()
        hasher.update(
            f"{node.op}|{node.value!r}|{len(node.children)};".encode()
        )
        stack.extend(reversed(node.children))


def test_structural_ast_digest(corpus):
    hasher = hashlib.sha256()
    n_functions = 0
    for binary in corpus:
        for record in binary.functions:
            fn = decompile_function(binary, record)
            hasher.update(
                f"{fn.name}|{fn.n_blocks}|{fn.callees!r}|".encode()
            )
            _walk(hasher, fn.ast)
            n_functions += 1
    assert n_functions == 288
    assert hasher.hexdigest() == AST_SHA256


def test_acfg_digest(corpus):
    hasher = hashlib.sha256()
    for binary in corpus:
        for record in binary.functions:
            acfg = extract_acfg(binary, record)
            hasher.update(acfg.features.tobytes() + acfg.adjacency.tobytes())
    assert hasher.hexdigest() == ACFG_SHA256
