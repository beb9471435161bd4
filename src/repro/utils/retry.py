"""Retry with exponential backoff and jitter.

The process supervisor (and anything else facing transient faults)
retries through one shared implementation, so attempt budgets
and backoff behaviour are uniform and testable.  Jitter is decorrelated
-- each delay is drawn uniformly from ``[delay * (1 - jitter), delay]``
-- so a fleet of workers retrying the same stalled resource does not
thunder back in lockstep.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterator, Optional, Tuple, Type

from repro.utils.logging import get_logger

_LOG = get_logger("utils.retry")

__all__ = ["RetryError", "backoff_delays", "retry"]

DEFAULT_ATTEMPTS = 3
DEFAULT_BASE_DELAY_S = 0.05
DEFAULT_MAX_DELAY_S = 2.0
DEFAULT_FACTOR = 2.0
DEFAULT_JITTER = 0.5


class RetryError(RuntimeError):
    """Every attempt failed; ``last`` carries the final exception."""

    def __init__(self, message: str, last: Optional[BaseException] = None):
        super().__init__(message)
        self.last = last


def backoff_delays(
    attempts: int,
    base_delay_s: float = DEFAULT_BASE_DELAY_S,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
    factor: float = DEFAULT_FACTOR,
    jitter: float = DEFAULT_JITTER,
    rng: Optional[random.Random] = None,
) -> Iterator[float]:
    """Delays to sleep *between* attempts (``attempts - 1`` values).

    Deterministic when given a seeded ``rng``; jitter=0 gives the pure
    exponential sequence ``base, base*factor, ...`` capped at
    ``max_delay_s``.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    if not 0 <= jitter <= 1:
        raise ValueError(f"jitter must be in [0, 1], got {jitter}")
    rng = rng if rng is not None else random.Random()
    delay = base_delay_s
    for _ in range(attempts - 1):
        capped = min(delay, max_delay_s)
        yield capped * (1.0 - jitter * rng.random())
        delay *= factor


def retry(
    fn: Callable,
    attempts: int = DEFAULT_ATTEMPTS,
    retry_on: Tuple[Type[BaseException], ...] = (Exception,),
    base_delay_s: float = DEFAULT_BASE_DELAY_S,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
    factor: float = DEFAULT_FACTOR,
    jitter: float = DEFAULT_JITTER,
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
):
    """Call ``fn()`` up to ``attempts`` times with backoff between tries.

    Only exceptions matching ``retry_on`` are retried; anything else
    propagates immediately.  After the budget is spent a
    :class:`RetryError` wraps the last failure.  ``on_retry(attempt,
    exc)`` fires before each backoff sleep (counters, logging).
    """
    delays = backoff_delays(
        attempts, base_delay_s=base_delay_s, max_delay_s=max_delay_s,
        factor=factor, jitter=jitter, rng=rng,
    )
    last: Optional[BaseException] = None
    for attempt in range(1, attempts + 1):
        try:
            return fn()
        except retry_on as exc:
            last = exc
            if attempt == attempts:
                break
            if on_retry is not None:
                on_retry(attempt, exc)
            _LOG.warning(
                "attempt %d/%d failed (%s); retrying", attempt, attempts, exc
            )
            sleep(next(delays))
    raise RetryError(
        f"all {attempts} attempts failed (last: {last})", last=last
    )
