"""The reference answers ``topk_agreement`` is measured against.

Paper-faithful and deliberately slow: the query vector comes from the
sequential per-node Tree-LSTM (:meth:`Asteria.encode_function`), every
corpus row is scored in float64 through the model's own Siamese head in
one block, and the ranking is a full ``lexsort`` (score descending, row
ascending) -- no batching, no float32, no partial selection, no ANN.
Written against :class:`~repro.core.model.Asteria` and the decompiler
only; nothing from ``repro.index`` is imported, so an index change
cannot move the oracle with it.

Run ``python3 benchmarks/e2e/oracle.py`` for the self-test: the oracle
must notice when a single corpus row is perturbed.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

if __name__ == "__main__":  # runnable from a bare checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.binformat.binary import BinaryFile
from repro.compiler.pipeline import compile_package
from repro.core.model import Asteria, FunctionEncoding
from repro.core.preprocess import try_preprocess_ast
from repro.decompiler.hexrays import DecompilationError, decompile_function
from repro.evalsuite.vulnsearch import CVE_LIBRARY, vulnerable_function
from repro.lang.nodes import Package


def eligible_functions(model: Asteria, binary: BinaryFile) -> List[str]:
    """Names of the functions of ``binary`` the system can encode: they
    decompile and their AST clears the model's size floor."""
    return [
        record.display_name() for record in binary.functions
        if _decompiled(model, binary, record) is not None
    ]


def is_eligible(model: Asteria, binary: BinaryFile, function: str) -> bool:
    """Whether one named function is among :func:`eligible_functions`."""
    record = binary.function_named(function)
    return _decompiled(model, binary, record) is not None


def _decompiled(model: Asteria, binary: BinaryFile, record):
    try:
        fn = decompile_function(binary, record)
    except DecompilationError:
        return None
    if try_preprocess_ast(fn.ast, model.config.min_ast_size) is None:
        return None
    return fn


def encode_query(
    model: Asteria, binary: BinaryFile, function: str
) -> FunctionEncoding:
    """Sequential (per-node, float64) encoding of one named function."""
    fn = _decompiled(model, binary, binary.function_named(function))
    if fn is None:
        raise ValueError(f"{function!r} of {binary.name!r} is not encodable")
    return model.encode_function(fn)


def cve_queries(model: Asteria) -> Dict[str, FunctionEncoding]:
    """``{cve_id: encoding}`` for the CVE library, built the way the
    engine builds it (vulnerable function compiled for x86) but encoded
    sequentially."""
    queries = {}
    for entry in CVE_LIBRARY:
        package = Package(
            name=f"{entry.software}-{entry.vulnerable_version}",
            functions=[vulnerable_function(entry)],
        )
        binary = compile_package(package, "x86")
        queries[entry.cve_id] = encode_query(
            model, binary, entry.function_name
        )
    return queries


def scores(
    model: Asteria,
    queries: Sequence[FunctionEncoding],
    vectors: np.ndarray,
    callee_counts: np.ndarray,
) -> np.ndarray:
    """Calibrated similarity of every query to every corpus row, as a
    ``(q, n)`` float64 matrix."""
    corpus = np.ascontiguousarray(vectors, dtype=np.float64)
    return np.asarray(
        model.similarity_matrix(
            list(queries), corpus, np.asarray(callee_counts), calibrate=True
        ),
        dtype=np.float64,
    )


def top_k_rows(
    model: Asteria,
    queries: Sequence[FunctionEncoding],
    vectors: np.ndarray,
    callee_counts: np.ndarray,
    k: int,
) -> List[List[int]]:
    """The reference top-``k`` row ids per query."""
    matrix = scores(model, queries, vectors, callee_counts)
    rows = np.arange(matrix.shape[1])
    return [
        [int(r) for r in np.lexsort((rows, -row_scores))[:k]]
        for row_scores in matrix
    ]


def agreement(served: Sequence[int], reference: Sequence[int]) -> float:
    """Share of the reference top-k the served top-k also holds."""
    if not reference:
        return 1.0
    return len(set(served) & set(reference)) / len(reference)


def self_test(seed: int = 0) -> Optional[str]:
    """``None`` when the oracle behaves; otherwise what went wrong.

    A corpus of random rows around a few real encodings: the oracle
    must rank a planted duplicate of the query first, and must change
    its answer when one corpus row is moved onto the query.
    """
    from repro.core.model import AsteriaConfig
    from repro.lang.generator import ProgramGenerator

    # a head that is monotone in L1 distance, so "nearest" is well defined
    model = Asteria(AsteriaConfig(hidden_dim=16))
    model.siamese.w.data[:] = 0.0
    model.siamese.w.data[:16, 0] = 0.05
    package = ProgramGenerator(seed=seed).generate_package("oracle")
    binary = compile_package(package, "arm")
    names = eligible_functions(model, binary)
    if len(names) < 2:
        return "fewer than two encodable functions in the test binary"
    query = encode_query(model, binary, names[0])
    gen = np.random.default_rng(seed)
    corpus = gen.normal(size=(500, 16)) * 2.0
    counts = np.full(500, query.callee_count, dtype=np.int64)
    corpus[123] = query.vector  # the planted exact match
    before = top_k_rows(model, [query], corpus, counts, 10)[0]
    if before[0] != 123:
        return f"planted duplicate ranked {before.index(123) + 1}, not 1"
    outsider = next(r for r in range(500) if r not in before)
    corpus[outsider] = query.vector  # perturb one row
    after = top_k_rows(model, [query], corpus, counts, 10)[0]
    if after == before or outsider not in after:
        return "perturbing a corpus row did not change the reference top-k"
    if after[:2] != sorted([123, outsider]):
        return "equal scores were not ordered by ascending row"
    if agreement(before, after) != 0.9:
        return f"agreement {agreement(before, after)} after one swap, not 0.9"
    return None


if __name__ == "__main__":
    problem = self_test()
    print("oracle self-test:", problem or "ok")
    sys.exit(1 if problem else 0)
