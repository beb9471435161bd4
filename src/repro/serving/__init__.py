"""The shard-parallel sweep pool, kept only as a benchmark layer.

The engine never reaches this package: every query sweeps in process.
The package stays only for the ``serving.pool_*`` layer of the e2e
benchmark's traced pass, which times a batch through
:class:`ServingCoordinator` against the in-process sweep, and it goes
when that layer is retired (ROADMAP items 1 and 4(b)).

:mod:`repro.serving.pool` is the supervised multi-process sweep pool,
:mod:`repro.serving.coordinator` the range planning and exact top-k
merge over it.
"""

from repro.serving.coordinator import ServingCoordinator, shard_ranges
from repro.serving.generations import FLAT_GENERATION
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
    "shard_ranges",
]
