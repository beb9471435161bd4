"""The engine's online phase: top-k queries over the encoded corpus.

Concurrent callers coalesce their query-side encodes through the
serving micro-batcher (:mod:`repro.api.batching`), and a query batch
sweeps the corpus once for all its queries.  The extract memo and the
CVE library sit under this module's memo lock, which is never held
while the engine lock is taken.
"""

from __future__ import annotations

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
from repro.api.types import QueryRequest, QueryResult
from repro.binformat.binary import BinaryFile
from repro.core.model import FunctionEncoding
from repro.nn.treebatch import TreeColumns
from repro.obs.trace import Span, trace
from repro.pipeline import binary_digest
from repro.pipeline.stages import ExtractedBinary
from repro.utils.logging import get_logger

_LOG = get_logger("api.engine")  # slow queries log as the engine's

#: Most-recently-queried binaries whose extracted columns stay memoized
#: in memory; a long-running server over many distinct query binaries
#: evicts the oldest instead of growing without bound (the pipeline's
#: artifact cache still holds evicted trees, on disk when ``cache_dir``
#: is set).
EXTRACT_MEMO_MAX_BINARIES = 64


class OnlinePhase:
    """Queries of an engine that provides ``config``, ``obs``, ``model``,
    ``pipeline``, ``batcher`` and ``_pin()`` (the store and the index it
    sweeps, pinned under the engine lock)."""

    def __init__(self):
        self._library: Optional[Dict] = None
        self._extract_memo: "OrderedDict[str, Tuple]" = OrderedDict()
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
        resolved = self._resolve_queries(requests, deadline, arrival)
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
            n_groups=len(groups), n_rows=n_rows,
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
    ) -> List[Tuple[str, FunctionEncoding]]:
        """``(display name, encoding)`` per request, coalescing encodes.

        Requests that need a query-side encode contribute their tree
        columns to a single :meth:`MicroBatcher.encode_many` call, so a
        Q-query batch costs a handful of wide GEMM passes instead of Q
        tree walks.  Tree extraction (model-independent) is cached; the
        encode itself is deliberately fresh each call so the batcher --
        not a memo -- carries concurrent load.
        """
        from repro.api.engine import load_binary  # engine imports this module

        resolved: List[Optional[Tuple[str, FunctionEncoding]]] = (
            [None] * len(requests)
        )
        jobs: List[Tuple[int, str, ExtractedBinary, int]] = []
        trees: List[TreeColumns] = []  # each job's tree, with its levels
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
            if not request.function:
                raise BadRequestError("binary queries need a function name")
            binary = load_binary(request.binary)
            extracted, columns, rows = self._extracted_for(binary)
            if request.function not in rows:
                raise BadRequestError(
                    f"function {request.function!r} not found (or below "
                    f"the AST size floor) in binary {binary.name!r}"
                )
            jobs.append((
                i, f"{binary.name}:{request.function}", extracted,
                rows[request.function],
            ))
            trees.append(columns.tree(rows[request.function]))
        if jobs:
            with trace("engine.encode_queries", n=len(jobs)):
                vectors = self.batcher.encode_many(
                    trees, deadline=deadline, arrival=arrival
                )
            self.obs.counter("repro_query_encodes_total").inc(len(jobs))
            beta = self.model.config.beta
            for (i, name, extracted, row), vector in zip(jobs, vectors):
                resolved[i] = (name, extracted.encoding(row, vector, beta))
        return resolved

    def _extracted_for(
        self, binary: BinaryFile
    ) -> Tuple[ExtractedBinary, TreeColumns, Dict[str, int]]:
        """Memoized: ``binary``'s extraction, its tree columns with their
        levels computed (model-independent, so a query's encode starts
        from them), and function name -> row."""
        digest = binary_digest(binary)
        with self._memo_lock:
            entry = self._extract_memo.get(digest)
            if entry is not None:
                self._extract_memo.move_to_end(digest)
                return entry
        extracted = self.pipeline.extracted(binary, digest)
        columns = extracted.columns()
        columns.levels()
        entry = (
            extracted, columns,
            {n: i for i, n in enumerate(extracted.names)},
        )
        with self._memo_lock:
            entry = self._extract_memo.setdefault(digest, entry)
            self._extract_memo.move_to_end(digest)
            while len(self._extract_memo) > EXTRACT_MEMO_MAX_BINARIES:
                self._extract_memo.popitem(last=False)  # evict oldest
            return entry
