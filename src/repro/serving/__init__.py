"""Shard-parallel serving: worker pool, merge coordinator, generations.

See :mod:`repro.serving.pool` for the supervised multi-process sweep
pool, :mod:`repro.serving.coordinator` for range planning + exact
top-k merge + hot swap, and :mod:`repro.serving.generations` for the
atomic ``CURRENT``-pointer generation protocol.
"""

from repro.serving.coordinator import ServingCoordinator, shard_ranges
from repro.serving.generations import (
    FLAT_GENERATION,
    active_root,
    clone_store,
    commit_generation,
    generation_seq,
    list_generations,
    prepare_generation,
    read_current,
)
from repro.serving.pool import (
    ShardWorkerPool,
    SweepError,
    SweepTimeout,
)

__all__ = [
    "FLAT_GENERATION",
    "ServingCoordinator",
    "ShardWorkerPool",
    "SweepError",
    "SweepTimeout",
    "active_root",
    "clone_store",
    "commit_generation",
    "generation_seq",
    "list_generations",
    "prepare_generation",
    "read_current",
    "shard_ranges",
]
