"""Persistent embedding index + top-k ANN search.

The corpus-scale answer to the paper's §V workload: encode every corpus
function once into a durable sharded store (:mod:`repro.index.store`),
then answer similarity queries online through an approximate or exact
top-k index (:mod:`repro.index.ann`) wrapped in a query service
(:mod:`repro.index.search`).
"""

from repro.index.ann import (
    AnnIndex,
    BruteForceIndex,
    Neighbor,
    known_backends,
    make_index,
    select_top_k,
)
from repro.index.quant import IvfPqIndex
from repro.index.search import SearchHit, SearchService
from repro.index.store import (
    EmbeddingStore,
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
    "SearchHit",
    "SearchService",
    "EmbeddingStore",
    "ShardedMatrix",
    "StoreError",
    "StoredFunction",
    "SynthSpec",
    "synth_corpus",
    "synth_queries",
]
