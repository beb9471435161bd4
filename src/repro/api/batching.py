"""Dynamic micro-batching for concurrent query encodes.

The serving layer's hot path is "encode one query AST, then score it":
with N concurrent clients the naive implementation performs N sequential
tree walks.  :class:`MicroBatcher` coalesces in-flight encode requests
into single level-batched calls (the engine's are
:meth:`~repro.core.model.Asteria.encode_columns` over one-tree
columns), so concurrency turns into batch width instead of queueing
delay.

The protocol is leader/follower: a calling thread appends its tree to
the pending queue; whichever thread finds no batch in flight elects
itself leader, drains up to ``max_batch_size`` pending items, then runs
one batched encode and publishes each result.  Followers block on their
item's event.  Exactly one batch runs at a time; the encode callable
itself needs no lock as long as it reads only immutable weights.

The batch window adapts to load.  A caller that will encode announces
itself first (:meth:`MicroBatcher.arriving`, which the engine enters
for every query with a binary to encode) and counts as *on its way*
until it queues or leaves without queuing.  A leader whose batch is not
full waits on the batcher's condition only while someone is on its
way, and at most ``max_wait_s``: a lone query never waits for company
that is not coming, and a query already resolving its binary still
rides the batch it would have missed.  A bare batcher that nobody
announces to never waits.

Because the level-batched engine issues fixed-size GEMM blocks, the
encoding of a tree is bit-for-bit independent of which other trees
happen to share its batch: a coalesced encode returns exactly the bytes
a serial encode would.

The batcher keeps no counters: each batch is observed into its registry
(``repro_microbatch_size``: count = batches, sum = items, max = widest)
before any of its callers wakes, so a returned encode is always counted.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from repro.api.errors import DeadlineExceededError
from repro.obs.metrics import MetricsRegistry


class _Item:
    __slots__ = ("tree", "done", "result", "error", "submitted", "deadline")

    def __init__(self, tree, deadline: Optional[float] = None):
        self.tree = tree
        self.done = threading.Event()
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.submitted = time.perf_counter()
        #: absolute ``time.monotonic()`` instant after which the caller
        #: no longer wants the result (None = no deadline)
        self.deadline = deadline

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class Arrival:
    """One announced caller, on its way until it queues or leaves."""

    __slots__ = ("on_way",)

    def __init__(self):
        self.on_way = True


class MicroBatcher:
    """Coalesce concurrent ``encode(tree)`` calls into batched encodes.

    ``encode_fn`` maps a sequence of trees to an ``(n, h)`` matrix.
    ``max_batch_size=1`` degenerates to serialized per-tree encoding --
    the baseline the serving throughput benchmark compares against.
    With no ``registry`` the batcher observes into a private one.
    """

    def __init__(
        self,
        encode_fn: Callable[[Sequence], np.ndarray],
        max_batch_size: int = 64,
        max_wait_s: float = 0.002,
        registry: Optional[MetricsRegistry] = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self._encode = encode_fn
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s
        self._cond = threading.Condition()
        self._pending: List[_Item] = []
        self._busy = False
        self._on_way = 0  # announced callers that have not queued yet
        self.registry = registry if registry is not None else MetricsRegistry()

    @contextmanager
    def arriving(self) -> Iterator[Arrival]:
        """Announce a caller that is about to encode.

        Until the caller hands the yielded :class:`Arrival` to
        :meth:`encode_many` (which queues it) or leaves the block, a
        leader with room in its batch waits for it.
        """
        arrival = Arrival()
        with self._cond:
            self._on_way += 1
        try:
            yield arrival
        finally:
            with self._cond:
                self._settle_locked(arrival)

    def _settle_locked(self, arrival: Arrival) -> None:
        if arrival.on_way:
            arrival.on_way = False
            self._on_way -= 1
            self._cond.notify_all()  # a waiting leader re-checks

    def encode(self, tree, deadline: Optional[float] = None) -> np.ndarray:
        """Encode one tree, riding whatever batch is forming."""
        return self.encode_many([tree], deadline=deadline)[0]

    def encode_many(
        self,
        trees: Sequence,
        deadline: Optional[float] = None,
        arrival: Optional[Arrival] = None,
    ) -> np.ndarray:
        """Encode many trees from one caller as an ``(n, h)`` matrix.

        The items enter the shared pending queue, so a multi-query
        caller (``AsteriaEngine.query_batch``) coalesces with concurrent
        single queries exactly like N separate threads would -- but with
        one submitting thread and no per-item wakeup churn.  More items
        than ``max_batch_size`` simply span several batches.

        ``deadline`` is an absolute ``time.monotonic()`` instant: a
        caller still queued when it passes raises
        :class:`DeadlineExceededError` instead of waiting forever behind
        a storm (its unclaimed items leave the queue; items already in a
        running batch finish and are discarded).  ``arrival``, the
        caller's :meth:`arriving` announcement, settles as the items
        queue.
        """
        items = [_Item(tree, deadline=deadline) for tree in trees]
        if not items:
            return np.zeros((0, 0))
        with self._cond:
            self._pending.extend(items)
            if arrival is not None:
                self._settle_locked(arrival)
        while True:
            run: Optional[List[_Item]] = None
            with self._cond:
                if all(item.done.is_set() for item in items):
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    # give up: pull our unclaimed items out of the queue
                    # so no leader wastes a batch slot on them
                    ours = set(map(id, items))
                    self._pending = [
                        it for it in self._pending if id(it) not in ours
                    ]
                    raise DeadlineExceededError(
                        "query overran its deadline while queued for "
                        "encoding"
                    )
                if not self._busy and self._pending:
                    self._busy = True
                    run = self._claim_pending_locked(self.max_batch_size)
                else:
                    # a leader is encoding (maybe our items); it notifies
                    # when it finishes, the timeout is only a safety net
                    timeout = 0.05
                    if deadline is not None:
                        timeout = min(
                            timeout, max(0.0, deadline - time.monotonic())
                        )
                    self._cond.wait(timeout=timeout)
                    continue
            self._run_batch(run)
        for item in items:
            if item.error is not None:
                raise item.error
        return np.stack([item.result for item in items])

    def _claim_pending_locked(self, room: int) -> List[_Item]:
        """Take up to ``room`` items off the queue, expiring stale ones.

        Runs under ``self._cond``.  Items whose deadline has already
        passed get :class:`DeadlineExceededError` published immediately
        -- encoding them would waste batch width on a result nobody is
        waiting for.
        """
        now = time.monotonic()
        run: List[_Item] = []
        taken = 0
        for it in self._pending:
            if len(run) == room:
                break
            taken += 1
            if it.expired(now):
                it.error = DeadlineExceededError(
                    "query overran its deadline while queued for encoding"
                )
                it.done.set()
                continue
            run.append(it)
        del self._pending[:taken]
        return run

    def _run_batch(self, run: List[_Item]) -> None:
        if not run:  # every claimed item had already expired
            with self._cond:
                self._busy = False
                self._cond.notify_all()
            return
        # wait for callers already on their way, while there is room
        with self._cond:
            give_up = time.monotonic() + self.max_wait_s
            while True:
                room = self.max_batch_size - len(run)
                run.extend(self._claim_pending_locked(room))
                left = give_up - time.monotonic()
                if len(run) == self.max_batch_size or not self._on_way \
                        or left <= 0:
                    break
                self._cond.wait(left)
        try:
            vectors = self._encode([it.tree for it in run])
            for i, it in enumerate(run):
                it.result = np.asarray(vectors[i]).copy()
        except BaseException as exc:  # publish, don't strand followers
            for it in run:
                it.error = exc
        finally:
            # counted before any caller wakes: an encode that returned
            # is always in the histogram
            self._observe(run)
            with self._cond:
                self._busy = False
                for it in run:
                    it.done.set()
                # wake followers: completed ones return, the rest elect
                # the next leader immediately instead of timing out
                self._cond.notify_all()

    def _observe(self, run: List[_Item]) -> None:
        now = time.perf_counter()
        self.registry.histogram("repro_microbatch_size").observe(len(run))
        self.registry.histogram("repro_microbatch_fill").observe(
            len(run) / self.max_batch_size
        )
        wait = self.registry.histogram("repro_microbatch_wait_seconds")
        for it in run:
            wait.observe(now - it.submitted)
