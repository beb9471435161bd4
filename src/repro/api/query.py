"""The engine's online phase: top-k queries over the encoded corpus.

Each queried function is encoded once per engine: a binary query's
encoding is memoized beside its binary's extracted columns, as the CVE
library's are for the engine's life, so a repeat goes straight to the
sweep.  This is sound because the engine's model is fixed and a
function's encoding does not depend on what shares its batch, so a
memo hit returns the bytes a fresh encode would.  First encodes of
concurrent callers coalesce through the serving micro-batcher
(:mod:`repro.api.batching`), and a query batch sweeps the corpus once
for all its queries.  The extract memo and the CVE library sit under
this module's memo lock, which is never held while the engine lock is
taken.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.batching import Arrival
from repro.api.errors import BadRequestError, DeadlineExceededError
from repro.api.types import BinarySource, QueryRequest, QueryResult
from repro.core.model import FunctionEncoding
from repro.obs.trace import Span, trace
from repro.pipeline import binary_digest
from repro.pipeline.stages import ExtractedBinary
from repro.utils.logging import get_logger

_LOG = get_logger("api.engine")  # slow queries log as the engine's

#: Most-recently-queried binaries whose extracted columns, and the
#: encodings of their queried functions, stay memoized in memory; a
#: long-running server over many distinct query binaries evicts the
#: oldest, encodings and all, instead of growing without bound (the
#: pipeline's artifact cache still holds evicted trees, on disk when
#: ``cache_dir`` is set; an evicted function's next query encodes again).
EXTRACT_MEMO_MAX_BINARIES = 64


class _Memoized:
    """One queried binary: its extraction, its tree columns with their
    levels computed, function name -> row, and the encodings of the
    functions queried so far (name -> :class:`FunctionEncoding`, with
    read-only vectors, published first-writer-wins under the memo
    lock)."""

    __slots__ = ("extracted", "columns", "rows", "encodings")

    def __init__(self, extracted: ExtractedBinary):
        self.extracted = extracted
        self.columns = extracted.columns()
        self.columns.levels()
        self.rows = {n: i for i, n in enumerate(extracted.names)}
        self.encodings: Dict[str, FunctionEncoding] = {}


class OnlinePhase:
    """Queries of an engine that provides ``config``, ``obs``, ``model``,
    ``pipeline``, ``batcher`` and ``_pin()`` (the store and the index it
    sweeps, pinned under the engine lock)."""

    def __init__(self):
        self._library: Optional[Dict] = None
        self._extract_memo: "OrderedDict[str, _Memoized]" = OrderedDict()
        self._memo_lock = threading.Lock()  # extract memo + CVE library
        # sweeps run outside the engine lock, one per usable core: 16
        # unbounded threads lost ~30 % of ivf-pq q/s to GIL hand-offs
        self._sweep_slots = threading.Semaphore(
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1
        )

    def cve_library(self) -> Dict[str, Tuple]:
        """``{cve_id: (CVEEntry, FunctionEncoding)}``, encoded once.

        The query side of the paper's search protocol; encodings go
        through the same artifact cache as the corpus.  Built without
        the engine lock and published first-writer-wins (a concurrent
        duplicate build reads the cache the first one filled).
        """
        if self._library is not None:
            return self._library
        from repro.compiler.pipeline import compile_package
        from repro.evalsuite.vulnsearch import CVE_LIBRARY, vulnerable_function
        from repro.lang.nodes import Package

        library = {}
        for entry in CVE_LIBRARY:
            package = Package(
                name=f"{entry.software}-{entry.vulnerable_version}",
                functions=[vulnerable_function(entry)],
            )
            binary = compile_package(package, "x86")
            by_name = {
                encoding.name: encoding
                for encoding in self.pipeline.encode_binary(binary)
            }
            encoding = by_name.get(entry.function_name)
            if encoding is None:
                raise ValueError(
                    f"CVE function {entry.function_name!r} did not "
                    f"survive decompilation/preprocessing"
                )
            encoding.vector.flags.writeable = False  # shared by every query
            library[entry.cve_id] = (entry, encoding)
        with self._memo_lock:
            if self._library is None:
                self._library = library
            return self._library

    def _deadline_of(self, request: QueryRequest) -> Optional[float]:
        """The request's absolute deadline (its own, or one derived from
        ``config.request_timeout_ms`` starting now)."""
        if request.deadline is not None:
            return request.deadline
        timeout_ms = self.config.request_timeout_ms
        if timeout_ms is None:
            return None
        return time.monotonic() + timeout_ms / 1000.0

    def query(self, request: QueryRequest) -> QueryResult:
        """Top-k similar corpus functions for one query.

        The one-request case of :meth:`query_batch`, minus the batch
        counter.  Concurrent callers coalesce their query-side encodes
        into shared level-batched GEMM calls; results are bit-for-bit
        identical to serial execution.  A request that cannot finish by
        its deadline (``request.deadline`` or
        ``config.request_timeout_ms``) raises
        :class:`DeadlineExceededError` instead of holding its slot.

        The result's ``encoding`` is memoized and shared: every query of
        the same function returns the same frozen
        :class:`FunctionEncoding`, whose ``vector`` is read-only.
        """
        return self._answer(
            [request], "engine.query", "repro_query_seconds"
        )[0]

    def query_batch(
        self, requests: Sequence[QueryRequest]
    ) -> List[QueryResult]:
        """Many queries in one pass: batched encode, batched top-k.

        Returns the hits of mapping :meth:`query` over the same
        encodings, rows and scores bit for bit, but binary-sourced
        query encodes run as one micro-batched level-batched GEMM call
        and the top-k scoring sweeps the corpus once for the whole batch
        instead of once per request.  Requests sharing
        ``top_k``/``threshold`` values are scored together; mixed
        parameters simply split the batch into a few sub-batches.
        """
        requests = list(requests)
        if not requests:
            return []
        results = self._answer(
            requests, "engine.query_batch", "repro_query_batch_seconds"
        )
        self.obs.counter("repro_query_batches_total").inc()
        return results

    def _answer(
        self,
        requests: List[QueryRequest],
        span_name: str,
        metric: str,
    ) -> List[QueryResult]:
        """Resolve, group and sweep ``requests`` under one span."""
        deadlines = [
            d for d in (self._deadline_of(r) for r in requests)
            if d is not None
        ]
        # the earliest per-request deadline bounds the shared phases (one
        # encode pass + one sweep serve the whole batch)
        deadline = min(deadlines) if deadlines else None
        # a caller with a binary to encode is on its way to the batcher
        # from here: a leader with room waits for it (CVE and
        # encoding-sourced requests never encode)
        admit = self.batcher.arriving() if any(
            r.encoding is None and r.cve_id is None and r.binary is not None
            for r in requests
        ) else nullcontext()
        try:
            with admit as arrival, \
                    trace(span_name, n_queries=len(requests)) as span:
                results = self._resolve_and_sweep(
                    requests, deadline, span, arrival
                )
        except DeadlineExceededError:
            self.obs.counter("repro_request_timeouts_total").inc()
            raise
        self.obs.counter("repro_queries_total").inc(len(requests))
        self._observe_query(span, metric)
        return results

    def _resolve_and_sweep(
        self,
        requests: List[QueryRequest],
        deadline: Optional[float],
        span: Span,
        arrival: Optional[Arrival],
    ) -> List[QueryResult]:
        groups: Dict[Tuple, List[int]] = {}
        for i, request in enumerate(requests):
            top_k, threshold = request.top_k, request.threshold
            if top_k is not None and top_k < 0:
                raise BadRequestError(f"top_k must be >= 0, got {top_k}")
            if threshold is not None:
                # NaN compares false with every score: a silent empty answer
                if not math.isfinite(threshold):
                    raise BadRequestError(
                        f"threshold must be a finite number, got {threshold}"
                    )
                if threshold < 0:
                    raise BadRequestError(
                        f"threshold must be >= 0, got {threshold}"
                    )
            groups.setdefault((top_k, threshold), []).append(i)
        resolved, n_encoded = self._resolve_queries(
            requests, deadline, arrival
        )
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceededError(
                "request overran its deadline before the corpus sweep"
            )
        results: List[Optional[QueryResult]] = [None] * len(requests)
        # the pin covers only the index, refreshed in step with store
        # flushes; every group sweeps it unlocked
        store, index = self._pin()
        n_rows = len(index)
        for (top_k, threshold), members in groups.items():
            encodings = [resolved[i][1] for i in members]
            with self._sweep_slots:
                neighbor_lists = index.top_k_batch(
                    encodings, k=top_k, threshold=threshold
                )
            for i, neighbors in zip(members, neighbor_lists):
                name, encoding = resolved[i]
                results[i] = QueryResult(
                    query=name, encoding=encoding, n_rows=n_rows,
                    hits=[store.hit(n.row, n.score) for n in neighbors],
                )
        span.set(
            queries=[name for name, _encoding in resolved],
            n_groups=len(groups), n_rows=n_rows, encoded=n_encoded,
        )
        return results

    def _observe_query(self, span: Span, metric: str) -> None:
        """Record a closed query span: latency histogram + slow-query log."""
        self.obs.histogram(metric).observe(span.wall_s)
        threshold_ms = self.config.slow_query_ms
        if threshold_ms is None or span.wall_s * 1000.0 < threshold_ms:
            return
        self.obs.counter("repro_slow_queries_total").inc()
        _LOG.warning(
            "slow query (%.1fms >= %.1fms): %s",
            span.wall_s * 1000.0, threshold_ms,
            json.dumps(span.to_dict(), sort_keys=True),
        )

    def _resolve_queries(
        self,
        requests: Sequence[QueryRequest],
        deadline: Optional[float],
        arrival: Optional[Arrival],
    ) -> Tuple[List[Tuple[str, FunctionEncoding]], int]:
        """``(display name, encoding)`` per request, and how many
        functions this call encoded.

        A binary-sourced function is encoded on its first query and
        memoized in its binary's extract memo entry; a later query of it
        encodes nothing, as a CVE query never does.  The functions not
        yet memoized (each once, however many requests name it) go to a
        single :meth:`MicroBatcher.encode_many` call, so concurrent
        first queries still coalesce into a handful of wide GEMM passes.
        A call that encodes nothing settles its batcher ``arrival``
        before the sweep: no leader waits for it.
        """
        resolved: List[Optional[Tuple[str, FunctionEncoding]]] = (
            [None] * len(requests)
        )
        # (memo entry, function) -> requests waiting on its first encode
        jobs: Dict[Tuple[_Memoized, str], List[int]] = {}
        for i, request in enumerate(requests):
            if request.encoding is not None:
                resolved[i] = (request.encoding.name, request.encoding)
                continue
            if request.cve_id is not None:
                library = self.cve_library()
                if request.cve_id not in library:
                    raise BadRequestError(
                        f"unknown CVE id: {request.cve_id}"
                    )
                entry, encoding = library[request.cve_id]
                resolved[i] = (entry.cve_id, encoding)
                continue
            if request.binary is None:
                raise BadRequestError(
                    "query needs an encoding, a cve_id, or a binary + "
                    "function"
                )
            function = request.function
            if not function:
                raise BadRequestError("binary queries need a function name")
            memo = self._extracted_for(request.binary)
            name = memo.extracted.binary_name
            if function not in memo.rows:
                raise BadRequestError(
                    f"function {function!r} not found (or below "
                    f"the AST size floor) in binary {name!r}"
                )
            encoding = memo.encodings.get(function)
            if encoding is not None:
                resolved[i] = (f"{name}:{function}", encoding)
                continue
            jobs.setdefault((memo, function), []).append(i)
        if not jobs:
            if arrival is not None:
                self.batcher.settle(arrival)
            return resolved, 0
        with trace("engine.encode_queries", n=len(jobs)):
            vectors = self.batcher.encode_many(
                [memo.columns.tree(memo.rows[function])
                 for memo, function in jobs],
                deadline=deadline, arrival=arrival,
            )
        vectors.flags.writeable = False  # memoized: shared by every hit
        self.obs.counter("repro_query_encodes_total").inc(len(jobs))
        beta = self.model.config.beta
        fresh = [
            memo.extracted.encoding(memo.rows[function], vector, beta)
            for (memo, function), vector in zip(jobs, vectors)
        ]
        with self._memo_lock:
            for ((memo, function), members), encoding in zip(
                jobs.items(), fresh
            ):
                encoding = memo.encodings.setdefault(function, encoding)
                name = f"{memo.extracted.binary_name}:{function}"
                for i in members:
                    resolved[i] = (name, encoding)
        return resolved, len(jobs)

    def _extracted_for(self, source: BinarySource) -> _Memoized:
        """Memoized: the binary's extraction, tree columns and queried
        encodings (:class:`_Memoized`).

        RBIN bytes are memoized by their own sha256, so a hit neither
        parses them nor re-serialises a binary; a miss parses them, and
        the canonical :func:`binary_digest` keys the pipeline cache.
        """
        from repro.api.engine import load_binary  # engine imports this module

        if isinstance(source, bytes):
            key = hashlib.sha256(source).hexdigest()
        else:
            source = load_binary(source)
            key = binary_digest(source)
        with self._memo_lock:
            entry = self._extract_memo.get(key)
            if entry is not None:
                self._extract_memo.move_to_end(key)
                return entry
        binary = load_binary(source)
        digest = key if binary is source else binary_digest(binary)
        entry = _Memoized(self.pipeline.extracted(binary, digest))
        with self._memo_lock:
            entry = self._extract_memo.setdefault(key, entry)
            self._extract_memo.move_to_end(key)
            while len(self._extract_memo) > EXTRACT_MEMO_MAX_BINARIES:
                self._extract_memo.popitem(last=False)  # evict oldest
            return entry
