"""Stdlib-only threaded HTTP/JSON serving layer over :class:`AsteriaEngine`.

``repro-cli serve`` exposes the engine's lifecycle over HTTP so the
paper's workflow -- encode a CVE function once, query it against
firmware corpora at scale -- is reachable from any client.  One engine
serves every request, in this process: concurrent ``/v1/query``
handlers funnel their query-side encodes through the engine's dynamic
micro-batcher, so under load the server performs a few wide
level-batched GEMM calls instead of one tree walk per request, and
their corpus sweeps run side by side outside the engine lock.

Endpoints (all JSON unless noted; every POST body's fields are
declared in :data:`BODIES`)::

    GET  /healthz       {"status": "ok" | "degraded", "version", "uptime_s",
                         "model_loaded", "index_rows", "index_shards",
                         "index_generation", "degraded", "degraded_reasons",
                         "quarantined_shards", "inflight", "draining"}
    GET  /metrics       Prometheus text exposition (text/plain)
    GET  /v1/stats      EngineStats.to_dict()
    POST /v1/encode     -> {"binary", "arch", "encodings": [...]}
    POST /v1/ingest     -> {"n_functions", "n_rows_total", ...}
    POST /v1/query      -> {"query", "n_rows", "hits": [...]}
    POST /v1/query_batch -> {"results": [<query response>, ...]}
                        (one corpus sweep answers the whole batch)
    POST /v1/compare    -> {"ast_similarity", "similarity"}
    POST /v1/shutdown   -> {"status": "shutting down", "stats": {...}}
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
import reprlib
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple, Union

import repro.faults as faults
from repro.api.engine import AsteriaEngine, parse_binary
from repro.api.types import (
    CompareRequest,
    EncodeRequest,
    IngestRequest,
    QueryRequest,
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
#: Seconds a request body may take to arrive after its headers: a client
#: stalled mid-body would otherwise hold its admission slot forever.
BODY_TIMEOUT_S = 10.0
#: Most firmware images one ``/v1/ingest`` may generate (~3.5 s of work).
MAX_CORPUS_IMAGES = 4096

_QUERY = {"cve": "string", "binary_b64": "string", "function": "string",
          "top_k": "integer or null", "threshold": "number or null"}
#: Every POST body, declared once: endpoint -> field -> JSON type, a
#: nested table for an object, a one-table list for a list of objects.
#: :func:`read_body` refuses any other key or type.  A query names
#: exactly one of ``cve`` and ``binary_b64`` (``function`` goes with the
#: latter), an ``image_id`` needs a ``binary_b64``; the
#: ``top_k``/``threshold`` ranges are the engine's to check.
BODIES: Dict[str, Dict] = {
    "/v1/encode": {"binary_b64": "string", "function": "string"},
    "/v1/ingest": {"binary_b64": "string", "image_id": "string",
                   "corpus": {"images": "integer", "seed": "integer"}},
    "/v1/query": _QUERY,
    "/v1/query_batch": {"queries": [_QUERY]},
    "/v1/compare": {"binary1_b64": "string", "function1": "string",
                    "binary2_b64": "string", "function2": "string"},
    "/v1/shutdown": {},
}
_TYPES = {"string": str, "integer": int, "integer or null": (int, type(None)),
          "number or null": (int, float, type(None))}


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


def read_body(body, fields: Dict, path: str = "") -> Dict:
    """``body``, checked against ``fields`` (a :data:`BODIES` table).

    A key the table does not declare is named by its path
    (``queries[1].tpo_k``), a value of the wrong type by its field.
    """
    if not isinstance(body, dict):
        raise BadRequestError(f"{path or 'request body'} must be a JSON "
                              f"object, got {reprlib.repr(body)}")
    for key, value in body.items():
        where, kind = f"{path}.{key}" if path else key, fields.get(key)
        if kind is None:
            known = ", ".join(fields) or "none"
            raise BadRequestError(f"unknown field {reprlib.repr(where)} "
                                  f"(expected one of: {known})")
        if isinstance(kind, dict):
            read_body(value, kind, where)
        elif isinstance(kind, list):
            if not isinstance(value, list):
                raise BadRequestError(
                    f"{where} must be a list, got {reprlib.repr(value)}")
            for i, item in enumerate(value):
                read_body(item, kind[0], f"{where}[{i}]")
        elif isinstance(value, bool) or not isinstance(value, _TYPES[kind]):
            article = "an" if kind[0] in "aeiou" else "a"
            raise BadRequestError(f"{key} must be {article} {kind}, "
                                  f"got {reprlib.repr(value)}")
    return body


def _binary_from_b64(body: Dict, key: str = "binary_b64") -> BinaryFile:
    if key not in body:
        raise BadRequestError(f"missing {key!r}")
    try:
        data = base64.b64decode(body[key], validate=True)
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
        """This POST's JSON body, checked against its :data:`BODIES`
        entry."""
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
        deadline, raw = time.monotonic() + BODY_TIMEOUT_S, bytearray()
        try:  # the body alone is timed, not the keep-alive wait before it
            while len(raw) < length:
                self.connection.settimeout(
                    max(deadline - time.monotonic(), 1e-3))
                chunk = self.rfile.read1(length - len(raw))
                if not chunk:  # the client closed mid-body
                    break
                raw += chunk
        except socket.timeout:  # TimeoutError only from Python 3.10
            pass
        finally:
            self.connection.settimeout(self.timeout)
        if len(raw) < length:
            self.close_connection = True  # the rest may still arrive
            raise BadRequestError(f"request body: {len(raw)} of {length} "
                                  f"bytes arrived in {BODY_TIMEOUT_S:g} s")
        try:
            body = json.loads(raw) if raw else {}
        except (json.JSONDecodeError, RecursionError) as exc:
            raise BadRequestError(f"request body is not JSON: {exc}")
        return read_body(body, BODIES[self.path])

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
        # pass through the bounded admission gate; GETs always answer.
        # The routes are BODIES' keys: /v1/<name> is _handle_<name>
        self._dispatch({
            path: getattr(self, "_handle_" + path[len("/v1/"):])
            for path in BODIES
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
            request.corpus_images = images = corpus.get("images", 0)
            request.corpus_seed = corpus.get("seed", 0)
            if not 1 <= images <= MAX_CORPUS_IMAGES:
                raise BadRequestError(f"corpus.images must be within [1, "
                                      f"{MAX_CORPUS_IMAGES}], got {images}")
        if "binary_b64" in payload:
            request.binaries = [(
                _binary_from_b64(payload),
                payload.get("image_id", ""),
            )]
        elif "image_id" in payload:
            raise BadRequestError("image_id tags binary_b64, which is absent")
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

    @staticmethod
    def _query(fields: Dict) -> QueryRequest:
        """A query object, read by :func:`read_body`, as a request;
        an absent ``top_k``/``threshold`` is :class:`QueryRequest`'s."""
        if ("cve" in fields) == ("binary_b64" in fields):
            raise BadRequestError("a query needs cve or binary_b64 (not both)")
        if "cve" in fields and "function" in fields:
            raise BadRequestError("function names a function of binary_b64; "
                                  "a cve query takes none")
        request = QueryRequest(**{
            name: fields[name] for name in ("function", "top_k", "threshold")
            if name in fields
        })
        if "cve" in fields:
            request.cve_id = fields["cve"]
        else:
            request.binary = _binary_from_b64(fields)
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
        result = self.engine.query(self._query(self._payload()))
        return 200, self._query_json(result)

    def _handle_query_batch(self) -> Tuple[int, Dict]:
        """Q queries in one request, answered by one engine batch.

        ``{"queries": [<query object>, ...]}`` where each element takes
        the same fields as ``/v1/query``; the corpus is swept once for
        the whole batch instead of once per query.
        """
        payload = self._payload()
        queries = payload.get("queries")
        if not queries:
            raise BadRequestError(
                "query_batch needs a non-empty 'queries' list"
            )
        results = self.engine.query_batch(
            [self._query(entry) for entry in queries]
        )
        return 200, {
            "results": [self._query_json(result) for result in results]
        }

    def _handle_compare(self) -> Tuple[int, Dict]:
        payload = self._payload()
        result = self.engine.compare(CompareRequest(
            binary1=_binary_from_b64(payload, "binary1_b64"),
            function1=payload.get("function1", ""),
            binary2=_binary_from_b64(payload, "binary2_b64"),
            function2=payload.get("function2", ""),
        ))
        body = {
            "function1": result.function1,
            "function2": result.function2,
            "ast_similarity": result.ast_similarity,
            "similarity": result.similarity,
        }
        return 200, body

    def _handle_shutdown(self) -> Tuple[int, Dict]:
        self._payload()
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
    with the CLI's distinct exit code instead of per-request 503s.  An
    address the socket cannot bind (port held, out of range) is a
    :class:`BadRequestError`, not a traceback.
    """
    configure()  # access + slow-query logs need a handler installed
    engine.model  # raises ModelNotFoundError early
    if engine.config.index_root is not None:
        engine.store  # open or create the durable index up front
    try:
        server = EngineServer((host, port), engine)
    except (OSError, OverflowError) as exc:
        raise BadRequestError(f"cannot listen on {host}:{port}: {exc}") from exc
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
