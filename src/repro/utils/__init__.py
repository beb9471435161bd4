"""Shared utilities: RNG, logging, crash-safe file IO, retry/backoff, and
the process-pool supervisor (:mod:`repro.utils.supervisor`)."""

from repro.utils.rng import RNG, derive_seed
from repro.utils.logging import get_logger
from repro.utils.retry import RetryError, backoff_delays, retry

__all__ = [
    "RNG",
    "RetryError",
    "backoff_delays",
    "derive_seed",
    "get_logger",
    "retry",
]
