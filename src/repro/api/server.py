"""Stdlib-only threaded HTTP/JSON serving layer over :class:`AsteriaEngine`.

``repro-cli serve`` exposes the engine's lifecycle over HTTP so the
paper's workflow -- encode a CVE function once, query it against
firmware corpora at scale -- is reachable from any client.  One engine
serves every request, in this process: concurrent ``/v1/query``
handlers funnel their query-side encodes through the engine's dynamic
micro-batcher, so under load the server performs a few wide
level-batched GEMM calls instead of one tree walk per request, and
their corpus sweeps run side by side outside the engine lock.

Endpoints (all JSON unless noted)::

    GET  /healthz       {"status": "ok", "version", "uptime_s",
                         "model_loaded", "index_rows", "index_shards",
                         "index_generation"}
    GET  /metrics       Prometheus text exposition (text/plain)
    GET  /v1/stats      EngineStats.to_dict()
    POST /v1/encode     {"binary_b64", "function"?}
                        -> {"binary", "arch", "encodings": [...]}
    POST /v1/ingest     {"binary_b64"?, "image_id"?,
                         "corpus": {"images", "seed"}?}
                        -> {"n_functions", "n_rows_total", ...}
    POST /v1/query      {"cve" | "binary_b64" + "function",
                         "top_k"?, "threshold"?}
                        -> {"query", "n_rows", "hits": [...]}
    POST /v1/query_batch {"queries": [<query object>, ...]}
                        -> {"results": [<query response>, ...]}
                        (one corpus sweep answers the whole batch)
    POST /v1/compare    {"binary1_b64", "function1",
                         "binary2_b64", "function2"}
                        -> {"ast_similarity", "similarity"}
    POST /v1/shutdown   {"status": "shutting down", "stats": {...}}
                        (final registry snapshot, then a clean exit)

Binaries travel as base64-encoded RBIN bytes.  Engine errors map to
their ``http_status`` with ``{"error": ..., "exit_code": ...}`` bodies.

Every request runs under a trace span: the ``X-Request-Id`` header is
honoured when a client sends one, minted otherwise, echoed on the
response, and stamped onto every log record emitted while handling the
request.  Per-endpoint request counts, error counts and latency
histograms stream into the engine's metrics registry, scrapeable at
``GET /metrics``.
"""

from __future__ import annotations

import base64
import binascii
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple, Union

import repro.faults as faults
from repro.api.engine import (
    AsteriaEngine,
    CompareRequest,
    EncodeRequest,
    IngestRequest,
    QueryRequest,
    USE_DEFAULT,
    parse_binary,
)
from repro.api.errors import (
    BadRequestError,
    EngineError,
    ServerOverloadedError,
)
from repro.binformat.binary import BinaryFile
from repro.core.model import FunctionEncoding
from repro.index.store import SearchHit
from repro.obs.trace import new_request_id, trace
from repro.utils.logging import configure, get_logger

_LOG = get_logger("api.server")
_ACCESS = get_logger("api.access")

MAX_BODY_BYTES = 64 * 1024 * 1024


def _encoding_json(encoding: FunctionEncoding) -> Dict:
    return {
        "name": encoding.name,
        "arch": encoding.arch,
        "binary_name": encoding.binary_name,
        "callee_count": encoding.callee_count,
        "ast_size": encoding.ast_size,
        "vector": [float(x) for x in encoding.vector],
    }


def _hit_json(rank: int, hit: SearchHit) -> Dict:
    return {
        "rank": rank,
        "row": hit.row,
        "score": hit.score,
        "function": hit.name,
        "binary_name": hit.binary_name,
        "arch": hit.arch,
        "image_id": hit.image_id,
    }


def _int_field(obj: Dict, key: str, default: int) -> int:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(f"{key} must be an integer, got {value!r}")
    return value


def _optional_number(obj: Dict, key: str):
    value = obj.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(f"{key} must be a number, got {value!r}")
    return value


def _optional_str(obj: Dict, key: str) -> Optional[str]:
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise BadRequestError(f"{key} must be a string, got {value!r}")
    return value


def _binary_from_b64(payload: Dict, key: str = "binary_b64") -> BinaryFile:
    raw = payload.get(key)
    if not isinstance(raw, str):
        raise BadRequestError(f"missing or non-string {key!r}")
    try:
        data = base64.b64decode(raw, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise BadRequestError(f"{key} is not valid base64: {exc}") from exc
    return parse_binary(data, key)


class EngineRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the shared engine."""

    server_version = "AsteriaEngine/1.0"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on accepted sockets: Nagle holds a small segment back
    # until the peer ACKs the last one, and the peer delays that ACK
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    @property
    def engine(self) -> AsteriaEngine:
        return self.server.engine

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        _LOG.debug("%s %s", self.address_string(), format % args)

    def _reply(
        self,
        status: int,
        body: Union[Dict, str],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Send a JSON (dict) or plain-text (str, for /metrics) body."""
        if isinstance(body, str):
            data = body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        request_id = getattr(self, "_request_id", None)
        if request_id:
            self.send_header("X-Request-Id", request_id)
        if self.close_connection:  # e.g. request bytes were left unread
            self.send_header("Connection", "close")
        # one write, not end_headers() then write(data): a second segment
        # on a keep-alive socket waits out the peer's delayed ACK (~40 ms)
        parts = getattr(self, "_headers_buffer", [])  # none for HTTP/0.9
        self._headers_buffer = []
        if parts:
            parts.append(b"\r\n")
        if self.command != "HEAD":
            parts.append(data)
        self.wfile.write(b"".join(parts))

    def send_error(self, code, message=None, explain=None):
        """The stdlib's own protocol errors (malformed request line,
        unsupported verb, oversized headers) as typed JSON, not HTML."""
        self.log_error("code %d, message %s", code, message)
        # an unparsed request line defaults to HTTP/0.9, which would
        # suppress the status line and headers of the error itself
        self.request_version = self.protocol_version
        self.close_connection = True  # whatever followed is unframed
        self._request_id = new_request_id()
        self._observe("_protocol_", code)
        self._reply(code, {
            "error": message or self.responses.get(code, ("???",))[0],
            "exit_code": BadRequestError.exit_code,
        })

    def _payload(self) -> Dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True  # body length unknowable
            raise BadRequestError("Content-Length must be an integer")
        if length < 0 or length > MAX_BODY_BYTES:
            # replying without reading the body would desync keep-alive
            self.close_connection = True
            raise BadRequestError(
                f"Content-Length must be within [0, {MAX_BODY_BYTES}], "
                f"got {length}"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BadRequestError(f"request body is not JSON: {exc}")
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        return payload

    def _dispatch(self, routes: Dict, gated: bool = False) -> None:
        started = time.perf_counter()
        # honour a client-supplied request id so traces correlate across
        # services; mint one otherwise.  _reply echoes it back.
        self._request_id = (
            self.headers.get("X-Request-Id") or new_request_id()
        )
        handler = routes.get(self.path)
        endpoint = self.path if handler is not None else "_unknown_"
        # /v1/shutdown must stay reachable while the server is saturated
        # or draining, so it bypasses admission control
        gated = gated and self.path != "/v1/shutdown"
        def reply(status: int, body, headers=None) -> None:
            # bookkeeping before the bytes leave: a client holding its
            # reply must find the request in /metrics and the final snapshot
            self._observe(endpoint, status, started)
            self._reply(status, body, headers)

        with trace(f"http {self.command} {self.path}",
                   request_id=self._request_id):
            if handler is None:
                # the request body was never read; keeping the connection
                # alive would let it be parsed as the next request line
                self.close_connection = True
                reply(404, {"error": f"no route {self.path}"})
            elif self.headers.get("Transfer-Encoding"):
                # only Content-Length bodies are read: a chunked body would
                # stay on the socket and be parsed as the next request line
                self.close_connection = True
                reply(BadRequestError.http_status, {
                    "error": "Transfer-Encoding is not supported; send "
                             "the body with Content-Length",
                    "exit_code": BadRequestError.exit_code,
                })
            elif gated and not self.server.try_admit():
                # load shedding: a bounded number of heavy requests run
                # concurrently; the rest get a fast, honest 503 instead
                # of queueing toward a timeout (body unread -> close)
                self.close_connection = True
                self.engine.obs.counter(
                    "repro_requests_shed_total",
                    "Requests shed by admission control (HTTP 503)",
                ).inc()
                reply(
                    503,
                    {
                        "error": "server overloaded, retry later",
                        "exit_code": ServerOverloadedError.exit_code,
                    },
                    headers={"Retry-After": "1"},
                )
            else:
                try:
                    if gated:  # health/metrics stay fault-free for ops
                        try:
                            faults.inject("server.request")
                        except faults.FaultInjected:
                            # fired before the handler read the body
                            self.close_connection = True
                            raise
                    reply(*handler())
                except EngineError as exc:
                    reply(
                        exc.http_status,
                        {"error": str(exc), "exit_code": exc.exit_code},
                    )
                except Exception as exc:  # never leak a traceback
                    _LOG.exception("unhandled error serving %s", self.path)
                    reply(500, {"error": f"internal error: {exc}"})
                finally:
                    if gated:
                        self.server.release()

    def _observe(
        self, endpoint: str, status: int, started: Optional[float] = None
    ) -> None:
        """Per-endpoint request/error/latency metrics + access log line.

        ``started=None`` is a protocol error: the request never parsed,
        so its verb and path (client bytes, unbounded as label values)
        are not recorded, nor a latency.
        """
        registry = self.engine.obs
        method, path = ("-", endpoint) if started is None else (
            self.command, self.path
        )
        registry.counter(
            "repro_requests_total", "HTTP requests served",
            endpoint=endpoint, method=method, status=str(status),
        ).inc()
        if status >= 400:
            registry.counter(
                "repro_request_errors_total",
                "HTTP requests answered with status >= 400",
                endpoint=endpoint,
            ).inc()
        elapsed_ms = 0.0
        if started is not None:
            elapsed = time.perf_counter() - started
            registry.histogram(
                "repro_request_seconds", "HTTP request wall time",
                endpoint=endpoint,
            ).observe(elapsed)
            elapsed_ms = elapsed * 1000.0
        _ACCESS.info(
            "%s %s %s %d %.1fms",
            self.address_string(), method, path, status, elapsed_ms,
        )

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:
        self._dispatch({
            "/healthz": self._handle_health,
            "/metrics": self._handle_metrics,
            "/v1/stats": self._handle_stats,
        })

    def do_POST(self) -> None:
        # every POST does real work (decompile/encode/sweep), so they all
        # pass through the bounded admission gate; GETs always answer
        self._dispatch({
            "/v1/encode": self._handle_encode,
            "/v1/ingest": self._handle_ingest,
            "/v1/query": self._handle_query,
            "/v1/query_batch": self._handle_query_batch,
            "/v1/compare": self._handle_compare,
            "/v1/shutdown": self._handle_shutdown,
        }, gated=True)

    # -- handlers ----------------------------------------------------------

    def _handle_health(self) -> Tuple[int, Dict]:
        from repro import __version__  # lazy: repro/__init__ imports api

        stats = self.engine.stats()
        return 200, {
            # "degraded" = up and answering, but below full fidelity
            # (quarantined shards, ANN fallback); reasons say why
            "status": "degraded" if stats.degraded else "ok",
            "version": __version__,
            "uptime_s": round(
                time.monotonic() - self.server.started_monotonic, 3
            ),
            "model_loaded": stats.model_loaded,
            "index_rows": stats.index_rows,
            "index_shards": stats.index_shards,
            # which corpus snapshot queries answer from (-1 = no index yet)
            "index_generation": self.engine.index_generation,
            "degraded": stats.degraded,
            "degraded_reasons": list(stats.degraded_reasons),
            "quarantined_shards": stats.index_quarantined_shards,
            "inflight": self.server.inflight,
            "draining": self.server.draining,
        }

    def _handle_metrics(self) -> Tuple[int, str]:
        return 200, self.engine.metrics_text()

    def _handle_stats(self) -> Tuple[int, Dict]:
        body = self.engine.stats().to_dict()
        return 200, body

    def _handle_encode(self) -> Tuple[int, Dict]:
        payload = self._payload()
        result = self.engine.encode(EncodeRequest(
            binary=_binary_from_b64(payload),
            function=payload.get("function"),
        ))
        body = {
            "binary": result.binary_name,
            "arch": result.arch,
            "encodings": [_encoding_json(e) for e in result.encodings],
        }
        return 200, body

    def _handle_ingest(self) -> Tuple[int, Dict]:
        payload = self._payload()
        request = IngestRequest()
        corpus = payload.get("corpus")
        if corpus is not None:
            if not isinstance(corpus, dict):
                raise BadRequestError("corpus must be an object")
            request.corpus_images = _int_field(corpus, "images", 0)
            request.corpus_seed = _int_field(corpus, "seed", 0)
            if request.corpus_images < 1:
                raise BadRequestError("corpus.images must be >= 1")
        if "binary_b64" in payload:
            request.binaries = [(
                _binary_from_b64(payload),
                str(payload.get("image_id", "")),
            )]
        if corpus is None and not request.binaries:
            raise BadRequestError(
                "ingest needs binary_b64 and/or corpus {images, seed}"
            )
        result = self.engine.ingest(request)
        body = {
            "n_functions": result.n_functions,
            "n_binaries": result.n_binaries,
            "n_images": result.n_images,
            "n_unpack_failures": result.n_unpack_failures,
            "n_skipped_small": result.n_skipped_small,
            "n_rows_total": result.n_rows_total,
        }
        return 200, body

    def _parse_query(self, payload: Dict) -> QueryRequest:
        top_k = payload.get("top_k", USE_DEFAULT)
        if top_k is not None and top_k is not USE_DEFAULT:  # null: no cap
            top_k = _int_field(payload, "top_k", 0)
        request = QueryRequest(
            cve_id=_optional_str(payload, "cve"),
            top_k=top_k,
            threshold=_optional_number(payload, "threshold"),
        )
        if request.cve_id is None:
            request.binary = _binary_from_b64(payload)
            request.function = _optional_str(payload, "function")
        return request

    @staticmethod
    def _query_json(result) -> Dict:
        return {
            "query": result.query,
            "n_rows": result.n_rows,
            "hits": [
                _hit_json(rank, hit)
                for rank, hit in enumerate(result.hits, start=1)
            ],
        }

    def _handle_query(self) -> Tuple[int, Dict]:
        result = self.engine.query(self._parse_query(self._payload()))
        return 200, self._query_json(result)

    def _handle_query_batch(self) -> Tuple[int, Dict]:
        """Q queries in one request, answered by one engine batch.

        ``{"queries": [<query object>, ...]}`` where each element takes
        the same fields as ``/v1/query``; the corpus is swept once for
        the whole batch instead of once per query.
        """
        payload = self._payload()
        queries = payload.get("queries")
        if not isinstance(queries, list) or not queries:
            raise BadRequestError(
                "query_batch needs a non-empty 'queries' list"
            )
        requests = []
        for i, entry in enumerate(queries):
            if not isinstance(entry, dict):
                raise BadRequestError(f"queries[{i}] must be an object")
            requests.append(self._parse_query(entry))
        results = self.engine.query_batch(requests)
        return 200, {
            "results": [self._query_json(result) for result in results]
        }

    def _handle_compare(self) -> Tuple[int, Dict]:
        payload = self._payload()
        result = self.engine.compare(CompareRequest(
            binary1=_binary_from_b64(payload, "binary1_b64"),
            function1=str(payload.get("function1", "")),
            binary2=_binary_from_b64(payload, "binary2_b64"),
            function2=str(payload.get("function2", "")),
        ))
        body = {
            "function1": result.function1,
            "function2": result.function2,
            "ast_similarity": result.ast_similarity,
            "similarity": result.similarity,
        }
        return 200, body

    def _handle_shutdown(self) -> Tuple[int, Dict]:
        # stop admitting new work, then wait (bounded) for requests that
        # were already admitted to finish -- a client mid-query gets its
        # answer instead of a reset connection
        drained = self.server.drain(
            self.engine.config.drain_timeout_ms / 1000.0
        )
        if not drained:
            _LOG.warning(
                "drain timeout (%.0f ms) expired with %d request(s) "
                "still in flight; shutting down anyway",
                self.engine.config.drain_timeout_ms, self.server.inflight,
            )
        # flush the registry: in-flight coalescing counters would
        # otherwise die with the process before anyone scraped them
        final = self.engine.flush_metrics()
        # shutdown() blocks until serve_forever returns, so it must run
        # outside this handler thread's serve loop
        threading.Thread(target=self.server.shutdown, daemon=True).start()
        return 200, {
            "status": "shutting down",
            "drained": drained,
            "stats": final,
        }


class EngineServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`AsteriaEngine`."""

    daemon_threads = True
    allow_reuse_address = True
    # the default listen backlog (5) drops connections under bursts of
    # concurrent clients -- exactly the serving scenario this layer exists
    # for
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], engine: AsteriaEngine):
        super().__init__(address, EngineRequestHandler)
        self.engine = engine
        self.started_monotonic = time.monotonic()
        self.started_unix = time.time()
        # bounded admission: at most config.max_inflight heavy requests
        # hold a slot at once; the rest are shed with 503 + Retry-After
        self._admission = threading.Condition()
        self._inflight = 0
        self._draining = False

    @property
    def inflight(self) -> int:
        with self._admission:
            return self._inflight

    @property
    def draining(self) -> bool:
        with self._admission:
            return self._draining

    def try_admit(self) -> bool:
        """Claim an in-flight slot; False = shed (full or draining)."""
        with self._admission:
            if self._draining:
                return False
            if self._inflight >= self.engine.config.max_inflight:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        with self._admission:
            self._inflight -= 1
            self._admission.notify_all()

    def drain(self, timeout_s: float) -> bool:
        """Refuse new heavy requests; wait for admitted ones to finish.

        Returns True when the server emptied within ``timeout_s``.
        """
        with self._admission:
            self._draining = True
            return self._admission.wait_for(
                lambda: self._inflight == 0, timeout=timeout_s
            )

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(
    engine: AsteriaEngine,
    host: str = "127.0.0.1",
    port: int = 8080,
    print_fn=print,
    ready: Optional[threading.Event] = None,
) -> int:
    """Run the serving loop until shutdown/interrupt; returns exit code.

    The engine's model is loaded (and a configured index opened) before
    the socket starts accepting, so a bad ``--model`` path fails fast
    with the CLI's distinct exit code instead of per-request 503s.
    """
    configure()  # access + slow-query logs need a handler installed
    engine.model  # raises ModelNotFoundError early
    if engine.config.index_root is not None:
        engine.store  # open or create the durable index up front
    server = EngineServer((host, port), engine)
    print_fn(f"serving on {server.url}")
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    print_fn("server stopped")
    return 0
