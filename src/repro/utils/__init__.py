"""Shared utilities: RNG, logging, crash-safe file IO, and the
process-pool supervisor (:mod:`repro.utils.supervisor`)."""

from repro.utils.rng import RNG, derive_seed
from repro.utils.logging import get_logger

__all__ = [
    "RNG",
    "derive_seed",
    "get_logger",
]
