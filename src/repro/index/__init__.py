"""Persistent embedding index + top-k ANN search.

The corpus-scale answer to the paper's §V workload: encode every corpus
function once into a durable sharded store (:mod:`repro.index.store`),
then answer similarity queries online through an exact or approximate
top-k index (:mod:`repro.index.ann`, :mod:`repro.index.quant`).  Backend
policy lives here: :func:`serve_index` builds the configured backend
over a store (persisted state, exact fallback) for the engine
(:class:`~repro.api.engine.AsteriaEngine`), which owns the one index
and answers every query from it; a hit is the store's
:class:`~repro.index.store.SearchHit` for the row the index ranked.
"""

from repro.index.ann import (
    AnnIndex,
    BruteForceIndex,
    Neighbor,
    known_backends,
    make_index,
    select_top_k,
    serve_index,
)
from repro.index.quant import IvfPqIndex
from repro.index.store import (
    EmbeddingStore,
    SearchHit,
    ShardedMatrix,
    StoreError,
    StoredFunction,
)
from repro.index.synth import SynthSpec, synth_corpus, synth_queries

__all__ = [
    "AnnIndex",
    "BruteForceIndex",
    "IvfPqIndex",
    "Neighbor",
    "known_backends",
    "make_index",
    "select_top_k",
    "serve_index",
    "SearchHit",
    "EmbeddingStore",
    "ShardedMatrix",
    "StoreError",
    "StoredFunction",
    "SynthSpec",
    "synth_corpus",
    "synth_queries",
]
