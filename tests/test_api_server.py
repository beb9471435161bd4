"""Tests for the HTTP/JSON serving layer (`repro.api.server`).

A real `EngineServer` runs on an ephemeral localhost port for the whole
module; requests go through urllib like any external client's would,
over one kept-alive `http.client` connection where reuse is the point,
and over a raw socket where the request itself is malformed.
"""

import base64
import http.client
import json
import logging
import select
import socket
import statistics
import threading
import time
import traceback
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

import repro.faults as faults
from repro.api import (
    AsteriaEngine,
    EngineConfig,
    EngineServer,
    IngestRequest,
)
import repro.api.server as server_module
from repro.api.server import (
    BODIES,
    MAX_CORPUS_IMAGES,
    EngineRequestHandler,
)
from repro.binformat.binary import BinaryFile
from repro.compiler.pipeline import compile_package
from repro.lang.generator import ProgramGenerator


@pytest.fixture(scope="module")
def server(trained_model):
    engine = AsteriaEngine(EngineConfig(), model=trained_model)
    engine.ingest(IngestRequest(corpus_images=2, corpus_seed=4))
    server = EngineServer(("127.0.0.1", 0), engine)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def query_binary():
    package = ProgramGenerator(seed=44).generate_package("spkg")
    return compile_package(package, "arm")


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _b64(binary) -> str:
    return base64.b64encode(binary.to_bytes()).decode("ascii")


def _raw_exchange(server, payload: bytes):
    """Send raw bytes, read until the server closes the connection.

    Returns ``(status, headers, rest)`` of the first reply, header names
    lower-cased and ``rest`` every byte after its header block -- so
    ``rest`` is exactly the body iff the server answered once and closed.
    A server that keeps the socket open fails the test by timing out.
    """
    chunks = []
    with socket.create_connection(
        server.server_address[:2], timeout=10
    ) as sock:
        sock.sendall(payload)
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # closed with our bytes unread: reset after the reply
            if not chunk:
                break
            chunks.append(chunk)
    head, _, rest = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    version, status, _reason = status_line.split(" ", 2)
    assert version == "HTTP/1.1"
    headers = {
        name.lower(): value.strip()
        for name, value in (line.split(":", 1) for line in header_lines)
    }
    return int(status), headers, rest


class TestRoutes:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["model_loaded"] is True
        assert body["index_rows"] > 0
        assert body["index_shards"] >= 1
        assert body["uptime_s"] >= 0
        import repro

        assert body["version"] == repro.__version__
        # the index generation tracks rows once a query built the index;
        # before that it reports -1 (not built) -- either is valid here
        assert body["index_generation"] in (-1, body["index_rows"])

    def test_stats(self, server):
        status, body = _get(server, "/v1/stats")
        assert status == 200
        assert body["model_loaded"] is True
        assert body["index_rows"] > 0
        assert "micro_batch_max" in body
        assert body["config"]["backend"] == "exact"

    def test_unknown_route_is_404(self, server):
        status, body = _post(server, "/v1/nope", {})
        assert status == 404
        assert "no route" in body["error"]

    def test_bad_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/query",
            data=b"not json{",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=30)
            status = 200
        except urllib.error.HTTPError as error:
            status = error.code
            body = json.loads(error.read())
        assert status == 400
        assert "not JSON" in body["error"]

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_threshold_is_400(self, server, literal):
        """Python's ``json`` accepts the literals; ``NaN`` compares false
        with every score, which used to be a 200 with no hits."""
        for path, body in [
            ("/v1/query",
             '{"cve": "CVE-2016-2105", "top_k": 3, "threshold": %s}'),
            ("/v1/query_batch",
             '{"queries": [{"cve": "CVE-2016-2105", "threshold": %s}]}'),
        ]:
            request = urllib.request.Request(
                server.url + path, data=(body % literal).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as raised:
                urllib.request.urlopen(request, timeout=30)
            reply = json.loads(raised.value.read())
            assert raised.value.code == 400 and reply["exit_code"] == 6
            assert "threshold must be" in reply["error"]
            assert literal.lower().lstrip("-")[:3] in reply["error"].lower()

    def test_transfer_encoding_is_typed_400_and_closes(self, server):
        # the body is not read, so the chunk bytes and the pipelined
        # request behind them must never be parsed as request lines
        body = json.dumps({"queries": [{"cve": "CVE-2016-2105"}]}).encode()
        status, headers, rest = _raw_exchange(
            server,
            b"POST /v1/query_batch HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
            + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        assert status == 400
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert len(rest) == int(headers["content-length"])  # one reply
        reply = json.loads(rest)
        assert "Content-Length" in reply["error"]
        assert reply["exit_code"] == 6

    @pytest.mark.parametrize("request_bytes, expected, needle", [
        (b"1a\r\n\r\n", 400, "Bad request syntax"),
        (b"BREW /pot HTTP/1.1\r\nHost: t\r\n\r\n", 501,
         "Unsupported method"),
    ], ids=["malformed-request-line", "unsupported-verb"])
    def test_protocol_errors_are_typed_json(
        self, server, request_bytes, expected, needle
    ):
        obs = server.engine.obs
        labels = dict(endpoint="_protocol_", method="-", status=str(expected))
        before = (
            obs.value("repro_requests_total", **labels),
            obs.value("repro_request_errors_total", endpoint="_protocol_"),
        )
        status, headers, rest = _raw_exchange(server, request_bytes)
        # counted before the reply left, like every routed request
        assert (
            obs.value("repro_requests_total", **labels),
            obs.value("repro_request_errors_total", endpoint="_protocol_"),
        ) == (before[0] + 1, before[1] + 1)
        assert status == expected
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert len(headers["x-request-id"]) == 16
        assert len(rest) == int(headers["content-length"])
        reply = json.loads(rest)
        assert needle in reply["error"]
        assert reply["exit_code"] == 6

    def test_fault_before_body_read_closes_connection(self, server):
        body = json.dumps({"cve": "CVE-2016-2105"}).encode()
        faults.activate("server.request", "raise", times=1)
        try:
            status, headers, rest = _raw_exchange(
                server,
                b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
            )
            assert faults.fired_counts().get("server.request") == 1
        finally:
            faults.clear()
        assert status == 500
        assert headers["connection"] == "close"
        # the unread body was not answered as a second (garbage) request
        assert len(rest) == int(headers["content-length"])
        assert "server.request" in json.loads(rest)["error"]


class TestKeepAlive:
    """What every real client does and urllib does not: many requests
    on one connection."""

    def test_one_connection_serves_every_request_without_stalling(
        self, server
    ):
        conn = http.client.HTTPConnection(
            *server.server_address[:2], timeout=30
        )
        try:
            conn.connect()
            sock = conn.sock
            query = json.dumps({"cve": "CVE-2016-2105", "top_k": 3})
            request_ids = set()
            for method, path, body in (
                ("GET", "/healthz", None), ("POST", "/v1/query", query),
            ):
                round_trips_ms = []
                for _ in range(30):
                    started = time.perf_counter()
                    conn.request(method, path, body=body)
                    response = conn.getresponse()
                    payload = response.read()
                    round_trips_ms.append(
                        (time.perf_counter() - started) * 1000.0
                    )
                    assert response.status == 200
                    assert json.loads(payload)
                    request_ids.add(response.headers["X-Request-Id"])
                    # http.client drops its socket when the server closes
                    assert conn.sock is sock
                # a reply split into two segments waits >= 40 ms for the
                # client's delayed ACK; a clean loopback round trip is
                # under 1 ms.  Median, so one scheduling hiccup is free.
                assert statistics.median(round_trips_ms) < 20.0, (
                    path, sorted(round_trips_ms)
                )
            assert len(request_ids) == 60
        finally:
            conn.close()

    def test_reply_is_one_write_made_after_the_request_is_counted(
        self, server
    ):
        events = []

        class Recorder:
            def write(self, data):
                events.append(bytes(data))
                return len(data)

        handler = EngineRequestHandler.__new__(EngineRequestHandler)
        handler.server = server
        handler.wfile = Recorder()
        handler.client_address = ("127.0.0.1", 0)
        handler.requestline = "GET /healthz HTTP/1.1"
        handler.request_version = "HTTP/1.1"
        handler.command, handler.path, handler.headers = "GET", "/healthz", {}
        handler.close_connection = False
        handler._observe = lambda *args: events.append("counted")
        handler.do_GET()
        # counted first: a client holding its reply finds itself in
        # /metrics; then header block and body in a single segment
        counted, data = events
        assert counted == "counted"
        assert data.startswith(b"HTTP/1.1 200 ")
        head, _, body = data.partition(b"\r\n\r\n")
        assert json.loads(body)["status"] == "ok"
        assert b"Content-Length: %d\r\n" % len(body) in head + b"\r\n"


class TestQuery:
    def test_query_by_cve(self, server):
        status, body = _post(server, "/v1/query",
                             {"cve": "CVE-2016-2105", "top_k": 3})
        assert status == 200
        assert body["query"] == "CVE-2016-2105"
        assert 0 < len(body["hits"]) <= 3
        assert body["hits"][0]["rank"] == 1
        scores = [hit["score"] for hit in body["hits"]]
        assert scores == sorted(scores, reverse=True)

    def test_query_by_binary_function(self, server, query_binary):
        status, encode_body = _post(server, "/v1/encode",
                                    {"binary_b64": _b64(query_binary)})
        assert status == 200
        name = encode_body["encodings"][0]["name"]
        status, body = _post(server, "/v1/query", {
            "binary_b64": _b64(query_binary), "function": name, "top_k": 4,
        })
        assert status == 200
        assert body["query"].endswith(f":{name}")
        assert len(body["hits"]) <= 4

    def test_a_memo_hit_neither_parses_nor_reserialises(
        self, server, query_binary, monkeypatch
    ):
        """The engine gets the RBIN bytes as received and memoizes their
        extraction by the bytes' sha256: a repeat query of one binary
        calls neither ``BinaryFile.from_bytes`` nor ``to_bytes``."""
        status, encode_body = _post(server, "/v1/encode",
                                    {"binary_b64": _b64(query_binary)})
        assert status == 200
        payload = {"binary_b64": _b64(query_binary), "top_k": 3,
                   "function": encode_body["encodings"][0]["name"]}
        status, first = _post(server, "/v1/query", payload)
        assert status == 200
        calls = []
        from_bytes, to_bytes = BinaryFile.from_bytes, BinaryFile.to_bytes

        def counted_from_bytes(cls, blob):
            calls.append("from_bytes")
            return from_bytes(blob)

        def counted_to_bytes(self):
            calls.append("to_bytes")
            return to_bytes(self)

        monkeypatch.setattr(BinaryFile, "from_bytes",
                            classmethod(counted_from_bytes))
        monkeypatch.setattr(BinaryFile, "to_bytes", counted_to_bytes)
        status, again = _post(server, "/v1/query", payload)
        assert status == 200
        assert again == first
        assert calls == []

    @pytest.mark.parametrize("path", ["/v1/query", "/v1/encode"])
    def test_bytes_that_are_not_rbin_are_400(self, server, path):
        payload = {"binary_b64": base64.b64encode(b"no rbin").decode()}
        if path == "/v1/query":
            payload["function"] = "f"
        status, body = _post(server, path, payload)
        assert status == 400
        assert body["error"].startswith(
            "binary_b64 is not a valid RBIN binary: "
        )
        assert body["exit_code"] == 6

    def test_unknown_cve_is_400(self, server):
        status, body = _post(server, "/v1/query", {"cve": "CVE-1999-0000"})
        assert status == 400
        assert "unknown CVE" in body["error"]
        assert body["exit_code"] == 6

    def test_missing_binary_is_400(self, server):
        status, body = _post(server, "/v1/query", {"top_k": 3})
        assert status == 400
        assert "binary_b64" in body["error"]

    def test_bad_numeric_types_are_400(self, server):
        status, body = _post(server, "/v1/query",
                             {"cve": "CVE-2016-2105", "top_k": "five"})
        assert status == 400
        assert "top_k" in body["error"]
        status, body = _post(server, "/v1/query",
                             {"cve": "CVE-2016-2105", "threshold": "high"})
        assert status == 400
        assert "threshold" in body["error"]
        status, body = _post(server, "/v1/ingest",
                             {"corpus": {"images": "four"}})
        assert status == 400
        assert "images" in body["error"]

    def test_non_string_query_names_are_400(self, server, query_binary):
        """A list where the engine looks a name up in a dict was an
        ``unhashable type`` 500."""
        status, body = _post(server, "/v1/query",
                             {"cve": ["CVE-2016-2105"]})
        assert (status, body["exit_code"]) == (400, 6)
        assert body["error"] == "cve must be a string, got ['CVE-2016-2105']"
        status, body = _post(server, "/v1/query_batch", {"queries": [
            {"binary_b64": _b64(query_binary), "function": ["f"]},
        ]})
        assert (status, body["exit_code"]) == (400, 6)
        assert body["error"] == ("queries[0].function must be a string, "
                                 "got ['f']")
        status, body = _post(server, "/v1/query", {"cve": {"id": 1}})
        assert (status, body["exit_code"]) == (400, 6)
        assert "cve" in body["error"]

    def test_negative_top_k_and_threshold_are_400(self, server):
        # the engine's own check, the one the CLI's exit 6 comes from
        status, body = _post(server, "/v1/query",
                             {"cve": "CVE-2016-2105", "top_k": -1})
        assert status == 400
        assert body["error"] == "top_k must be >= 0, got -1"
        status, body = _post(server, "/v1/query",
                             {"cve": "CVE-2016-2105", "threshold": -1})
        assert status == 400
        assert body["error"] == "threshold must be >= 0, got -1"
        status, body = _post(server, "/v1/query_batch", {"queries": [
            {"cve": "CVE-2016-2105", "threshold": -0.5},
        ]})
        assert (status, body["exit_code"]) == (400, 6)
        assert body["error"] == "threshold must be >= 0, got -0.5"


class TestQueryBatch:
    def test_batch_matches_single_queries(self, server):
        cves = ["CVE-2016-2105", "CVE-2014-4877", "CVE-2016-2105"]
        status, batch = _post(server, "/v1/query_batch", {
            "queries": [{"cve": cve, "top_k": 3} for cve in cves],
        })
        assert status == 200
        assert len(batch["results"]) == len(cves)
        for cve, result in zip(cves, batch["results"]):
            status, single = _post(server, "/v1/query",
                                   {"cve": cve, "top_k": 3})
            assert status == 200
            assert result["query"] == cve
            assert [h["row"] for h in result["hits"]] \
                == [h["row"] for h in single["hits"]]
            assert [h["score"] for h in result["hits"]] == pytest.approx(
                [h["score"] for h in single["hits"]], rel=1e-5
            )

    def test_mixed_parameters_split_correctly(self, server):
        status, body = _post(server, "/v1/query_batch", {
            "queries": [
                {"cve": "CVE-2016-2105", "top_k": 1},
                {"cve": "CVE-2016-2105", "top_k": 5},
            ],
        })
        assert status == 200
        assert len(body["results"][0]["hits"]) <= 1
        assert len(body["results"][1]["hits"]) <= 5

    def test_empty_or_malformed_batch_is_400(self, server):
        status, body = _post(server, "/v1/query_batch", {"queries": []})
        assert status == 400
        assert "queries" in body["error"]
        status, body = _post(server, "/v1/query_batch", {})
        assert status == 400
        status, body = _post(server, "/v1/query_batch",
                             {"queries": ["CVE-2016-2105"]})
        assert status == 400
        assert "queries[0]" in body["error"]

    def test_bad_member_fails_whole_batch(self, server):
        status, body = _post(server, "/v1/query_batch", {
            "queries": [
                {"cve": "CVE-2016-2105"},
                {"cve": "CVE-1999-0000"},
            ],
        })
        assert status == 400
        assert "unknown CVE" in body["error"]

    def test_stats_report_batches_and_footprint(self, server):
        status, body = _get(server, "/v1/stats")
        assert status == 200
        assert body["n_query_batches"] >= 1
        assert body["index_dtype"] == "float32"
        assert body["index_vector_bytes"] > 0
        assert body["ann_backend"] == "exact"

    def test_unknown_backend_is_typed_400(self, trained_model):
        # an unknown backend is a client error (HTTP 400 / exit 6), not
        # a silent degradation to the exact sweep
        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        engine.config.backend = "bogus"  # past EngineConfig's own check
        server = EngineServer(("127.0.0.1", 0), engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = _post(server, "/v1/query",
                                 {"cve": "CVE-2016-2105", "top_k": 3})
            assert status == 400
            assert "bogus" in body["error"]
            assert "ivf-pq" in body["error"]
            assert body["exit_code"] == 6
            assert not engine.stats().degraded  # nothing fell back
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


class TestEncodeIngestCompare:
    def test_encode(self, server, trained_model, query_binary):
        status, body = _post(server, "/v1/encode",
                             {"binary_b64": _b64(query_binary)})
        assert status == 200
        assert body["binary"] == query_binary.name
        assert body["arch"] == "arm"
        dim = trained_model.config.hidden_dim
        for encoding in body["encodings"]:
            assert len(encoding["vector"]) == dim

    def test_encode_bad_base64(self, server):
        status, body = _post(server, "/v1/encode", {"binary_b64": "!!!"})
        assert status == 400
        assert "base64" in body["error"]

    def test_ingest_binary_grows_the_index(self, server, query_binary):
        _status, before = _get(server, "/v1/stats")
        status, body = _post(server, "/v1/ingest", {
            "binary_b64": _b64(query_binary), "image_id": "img-test",
        })
        assert status == 200
        assert body["n_functions"] > 0
        assert body["n_rows_total"] \
            == before["index_rows"] + body["n_functions"]
        # the new rows are immediately queryable
        status, query = _post(server, "/v1/query",
                              {"cve": "CVE-2016-2105", "top_k": 3})
        assert status == 200
        assert query["n_rows"] == body["n_rows_total"]

    def test_ingest_with_a_truncated_function_skips_it(
        self, server, query_binary
    ):
        """One function cut inside an 8-byte immediate operand: the
        decoder's typed error skips that function, the rest ingest."""
        import dataclasses

        payload = {1: 1, 2: 8, 3: 5, 4: 4, 5: 4, 6: 4}  # bytes by tag

        def cut_inside_immediate(code):
            offset = 0
            while offset < len(code):
                n_operands = code[offset + 2]
                offset += 3
                for _ in range(n_operands):
                    if code[offset] == 2:
                        return offset + 4
                    offset += 1 + payload[code[offset]]
            return None

        functions = list(query_binary.functions)
        victim, cut = next(
            (i, cut) for i, record in enumerate(functions)
            if (cut := cut_inside_immediate(record.code)) is not None
        )
        functions[victim] = dataclasses.replace(
            functions[victim], code=functions[victim].code[:cut]
        )
        damaged = dataclasses.replace(
            query_binary, name="truncated", functions=functions
        )
        status, body = _post(server, "/v1/ingest", {
            "binary_b64": _b64(damaged), "image_id": "img-truncated",
        })
        assert status == 200, body
        assert 0 < body["n_functions"] < len(functions)

    def test_ingest_needs_input(self, server):
        status, body = _post(server, "/v1/ingest", {})
        assert status == 400
        assert "ingest needs" in body["error"]

    def test_non_string_names_are_400(self, server, query_binary):
        """A non-string image_id was stored as its ``str()`` (200); a
        non-string compare name was mangled the same way."""
        _status, before = _get(server, "/v1/stats")
        status, body = _post(server, "/v1/ingest", {
            "binary_b64": _b64(query_binary), "image_id": {"vendor": 1},
        })
        assert (status, body["exit_code"]) == (400, 6)
        assert body["error"] == "image_id must be a string, got {'vendor': 1}"
        _status, after = _get(server, "/v1/stats")
        assert after["index_rows"] == before["index_rows"]
        binary = _b64(query_binary)
        for field, value in (("function1", ["f"]), ("function2", 7)):
            payload = {"binary1_b64": binary, "function1": "f",
                       "binary2_b64": binary, "function2": "f",
                       field: value}
            status, body = _post(server, "/v1/compare", payload)
            assert (status, body["exit_code"]) == (400, 6)
            assert body["error"] == f"{field} must be a string, got {value!r}"
        status, body = _post(server, "/v1/encode",
                             {"binary_b64": binary, "function": ["f"]})
        assert (status, body["exit_code"]) == (400, 6)
        assert body["error"] == "function must be a string, got ['f']"

    def test_compare(self, server, query_binary):
        _status, encode_body = _post(server, "/v1/encode",
                                     {"binary_b64": _b64(query_binary)})
        name = encode_body["encodings"][0]["name"]
        status, body = _post(server, "/v1/compare", {
            "binary1_b64": _b64(query_binary), "function1": name,
            "binary2_b64": _b64(query_binary), "function2": name,
        })
        assert status == 200
        assert 0.0 < body["similarity"] <= 1.0
        assert body["ast_similarity"] == pytest.approx(body["similarity"])


class TestObservability:
    def _scrape(self, server):
        """GET /metrics -> {series line -> float value}."""
        with urllib.request.urlopen(
            server.url + "/metrics", timeout=30
        ) as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        values = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            series, value = line.rsplit(" ", 1)
            values[series] = float(value)
        return text, values

    def test_metrics_is_valid_prometheus_text(self, server):
        _get(server, "/v1/stats")  # at least one request before the scrape
        text, values = self._scrape(server)
        for line in text.splitlines():
            assert line.startswith("#") or " " in line
        assert values  # something was exported
        # histograms expose cumulative le-buckets ending at +Inf
        inf_buckets = [s for s in values if '_bucket{' in s and '+Inf' in s]
        assert inf_buckets

    def test_encoder_metrics_exported(self, server):
        """The encoder's counters/histograms surface in /metrics + stats."""
        _status, stats = _get(server, "/v1/stats")
        _text, values = self._scrape(server)
        # startup ingest encoded the corpus through the batched path
        assert values.get("repro_encode_trees_total", 0) > 0
        assert values["repro_encode_trees_total"] == stats["n_encoded_trees"]
        assert values.get("repro_encode_block_rows", 0) >= 1
        assert values["repro_encode_block_rows"] == stats["encode_block_rows"]
        fill = [s for s in values
                if s.startswith("repro_encode_batch_fill_bucket")]
        assert fill, "scheduler chunk-fill histogram missing"
        level = [s for s in values
                 if s.startswith("repro_encode_level_seconds_bucket")]
        assert level, "per-level encode-seconds histogram missing"

    def test_metrics_agree_with_stats_after_query_storm(self, server):
        n_threads, per_thread = 8, 3
        # no other test queries this binary: the storm's encodes are cold
        storm_binary = compile_package(
            ProgramGenerator(seed=45).generate_package("storm"), "arm"
        )
        _status, encoded = _post(server, "/v1/encode",
                                 {"binary_b64": _b64(storm_binary)})
        names = [e["name"] for e in encoded["encodings"]]
        n_ops = n_threads * per_thread
        assert len(names) >= n_ops // 2
        # CVE queries, and binary ones that ride the batcher: each of
        # those names its own function, so each encodes on its first query
        queries = [
            {"cve": "CVE-2016-2105", "top_k": 2} if j % 2 == 0 else
            {"binary_b64": _b64(storm_binary), "function": names[j // 2],
             "top_k": 2}
            for j in range(n_ops)
        ]

        def storm():
            barrier = threading.Barrier(n_threads)
            errors = []

            def client(t):
                barrier.wait()
                try:
                    for i in range(per_thread):
                        status, _body = _post(
                            server, "/v1/query", queries[t * per_thread + i]
                        )
                        assert status == 200
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(t,))
                       for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, errors

        _status, before = _get(server, "/v1/stats")
        storm()
        _status, stats = _get(server, "/v1/stats")
        _text, values = self._scrape(server)
        for field in ("n_query_encodes", "micro_batched_items"):
            assert stats[field] - before[field] >= n_ops // 2, field
        # the stats view and the exposition read the same registry, so
        # the counters cannot disagree
        assert values["repro_queries_total"] == stats["n_queries"]
        assert values["repro_query_encodes_total"] == stats["n_query_encodes"]
        assert stats["n_queries"] >= n_threads * per_thread
        # the micro-batch fields are the size histogram's count/sum/max
        assert values["repro_microbatch_size_count"] == stats["micro_batches"]
        assert values["repro_microbatch_size_sum"] \
            == stats["micro_batched_items"] >= n_threads * per_thread // 2
        assert server.engine.obs.get("repro_microbatch_size").totals()[2] \
            == stats["micro_batch_max"]
        # the cache fields are the by-kind lookup counters, summed
        for what in ("hits", "misses"):
            assert stats[f"cache_{what}"] == sum(
                v for series, v in values.items()
                if series.startswith(f"repro_pipeline_cache_{what}_total{{")
            ), what
        assert stats["cache_hits"] > 0
        # per-endpoint request counter and latency histogram moved too
        query_requests = sum(
            v for series, v in values.items()
            if series.startswith("repro_requests_total")
            and 'endpoint="/v1/query"' in series
        )
        assert query_requests >= n_threads * per_thread
        assert values[
            'repro_request_seconds_count{endpoint="/v1/query"}'
        ] >= n_threads * per_thread

        # a warm storm answers every binary query from the memo
        storm()
        _status, warm = _get(server, "/v1/stats")
        assert warm["n_queries"] == stats["n_queries"] + n_ops
        assert warm["n_query_encodes"] == stats["n_query_encodes"]
        assert warm["micro_batches"] == stats["micro_batches"]

    def test_request_id_minted_and_echoed(self, server):
        with urllib.request.urlopen(
            server.url + "/healthz", timeout=30
        ) as response:
            minted = response.headers["X-Request-Id"]
        assert minted and len(minted) == 16

    def test_client_request_id_is_honoured(self, server):
        request = urllib.request.Request(
            server.url + "/healthz", headers={"X-Request-Id": "trace-me-42"}
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["X-Request-Id"] == "trace-me-42"

    def test_404_is_counted_as_error(self, server):
        _post(server, "/v1/nope", {})
        _text, values = self._scrape(server)
        errors_404 = sum(
            v for series, v in values.items()
            if series.startswith("repro_request_errors_total")
            and '_unknown_' in series
        )
        assert errors_404 >= 1


class TestShutdown:
    def test_shutdown_endpoint_stops_the_server(self, trained_model):
        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        server = EngineServer(("127.0.0.1", 0), engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        status, body = _post(server, "/v1/shutdown", {})
        assert (status, body["status"]) == (200, "shutting down")
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()

    def test_shutdown_with_an_undeclared_key_is_400(self, trained_model):
        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        server = EngineServer(("127.0.0.1", 0), engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        status, body = _post(server, "/v1/shutdown", {"now": True})
        assert (status, body["exit_code"]) == (400, 6)
        assert body["error"].startswith("unknown field 'now'")
        assert _get(server, "/healthz")[0] == 200  # still serving
        assert _post(server, "/v1/shutdown", {})[0] == 200
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()

    def test_shutdown_body_carries_final_metrics_snapshot(
        self, trained_model
    ):
        """Regression: counters accumulated in flight used to die with
        the process before anyone could scrape them -- the shutdown reply
        now carries the flushed registry snapshot."""
        engine = AsteriaEngine(EngineConfig(), model=trained_model)
        server = EngineServer(("127.0.0.1", 0), engine)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        _get(server, "/healthz")
        _get(server, "/v1/stats")
        status, body = _post(server, "/v1/shutdown", {})
        assert status == 200
        snapshot = body["stats"]
        requests_served = sum(
            series["value"]
            for series in snapshot["repro_requests_total"]["series"]
        )
        # the two GETs above plus the shutdown POST itself may or may not
        # have been recorded yet (its _observe runs after the handler);
        # the pre-shutdown traffic must all be there
        assert requests_served >= 2
        assert snapshot["repro_model_loaded"]["series"][0]["value"] == 1.0
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()


class TestRequestBodies:
    """Every POST body is read against ``BODIES``: what it does not
    declare is a 400 that names it, and nothing is done."""

    @pytest.mark.parametrize("path, payload, needle", [
        ("/v1/query", {"cve": "CVE-2016-2105", "tpo_k": 1}, "'tpo_k'"),
        ("/v1/ingest", {"corpus": {"images": 1, "bogus": 2}},
         "'corpus.bogus'"),
        ("/v1/query_batch", {"queries": [
            {"cve": "CVE-2016-2105"}, {"cve": "CVE-2016-2105", "tpo_k": 1},
        ]}, "'queries[1].tpo_k'"),
        ("/v1/query_batch", {"queries": [{"cve": "CVE-2016-2105"}],
                             "top_k": "x"}, "'top_k'"),
        ("/v1/compare", {"binary": "AAAA"}, "'binary'"),
    ], ids=["top", "corpus", "queries-member", "beside-queries", "compare"])
    def test_unknown_key_is_400_naming_its_path(
        self, server, path, payload, needle
    ):
        status, body = _post(server, path, payload)
        assert (status, body["exit_code"]) == (400, 6)
        assert body["error"].startswith(f"unknown field {needle}")

    @pytest.mark.parametrize("path, payload, message", [
        ("/v1/query_batch", {"queries": [
            {"cve": "a"}, {"cve": "b", "top_k": "x"},
        ]}, "queries[1].top_k must be an integer or null, got 'x'"),
        ("/v1/ingest", {"corpus": {"images": "3"}},
         "corpus.images must be an integer, got '3'"),
    ], ids=["queries-member", "corpus"])
    def test_a_nested_type_error_names_its_path(
        self, server, path, payload, message
    ):
        status, body = _post(server, path, payload)
        assert (status, body["exit_code"]) == (400, 6)
        assert body["error"] == message

    @pytest.mark.parametrize("images", [0, MAX_CORPUS_IMAGES + 1, 10**8])
    def test_corpus_images_is_bounded(self, server, images):
        _status, before = _get(server, "/healthz")
        status, body = _post(server, "/v1/ingest",
                             {"corpus": {"images": images, "seed": 1}})
        assert (status, body["exit_code"]) == (400, 6)
        assert body["error"] == (f"corpus.images must be within "
                                 f"[1, {MAX_CORPUS_IMAGES}], got {images}")
        _status, after = _get(server, "/healthz")
        assert after["index_rows"] == before["index_rows"]

    def test_deeply_nested_json_is_400(self, server):
        """The decoder's RecursionError was a 500 with a traceback."""
        request = urllib.request.Request(
            server.url + "/v1/query", data=b"[" * 100_000 + b"]" * 100_000
        )
        with pytest.raises(urllib.error.HTTPError) as raised:
            urllib.request.urlopen(request, timeout=30)
        assert raised.value.code == 400
        assert "not JSON" in json.loads(raised.value.read())["error"]

    def test_a_negative_corpus_seed_is_400(self, server):
        """numpy seeds no negative number: this was a 500."""
        status, body = _post(server, "/v1/ingest",
                             {"corpus": {"images": 1, "seed": -1}})
        assert (status, body["exit_code"]) == (400, 6)
        assert body["error"] == "corpus_seed must be >= 0, got -1"

    def test_a_query_names_cve_or_binary_not_both(self, server, query_binary):
        both = {"cve": "CVE-2016-2105", "binary_b64": _b64(query_binary),
                "function": "f"}
        for path, payload in (("/v1/query", both),
                              ("/v1/query_batch", {"queries": [both]})):
            status, body = _post(server, path, payload)
            assert (status, body["exit_code"]) == (400, 6), path
            assert "not both" in body["error"]

    def test_a_cve_query_takes_no_function(self, server):
        """``function`` beside ``cve`` was accepted and ignored."""
        query = {"cve": "CVE-2016-2105", "function": "f"}
        for path, payload in (("/v1/query", query),
                              ("/v1/query_batch", {"queries": [query]})):
            status, body = _post(server, path, payload)
            assert (status, body["exit_code"]) == (400, 6), path
            assert body["error"].startswith("function names a function of "
                                            "binary_b64")

    def test_image_id_needs_a_binary(self, server):
        """``image_id`` without ``binary_b64`` was accepted and ignored,
        also beside a corpus it does not tag."""
        _status, before = _get(server, "/healthz")
        for payload in ({"image_id": "img0"},
                        {"image_id": "img0", "corpus": {"images": 1}}):
            status, body = _post(server, "/v1/ingest", payload)
            assert (status, body["exit_code"]) == (400, 6), payload
            assert body["error"] == ("image_id tags binary_b64, which is "
                                     "absent")
        _status, after = _get(server, "/healthz")
        assert after["index_rows"] == before["index_rows"]

    def test_absent_top_k_and_threshold_are_the_request_defaults(
        self, server
    ):
        _status, absent = _post(server, "/v1/query", {"cve": "CVE-2016-2105"})
        status, spelled = _post(server, "/v1/query", {
            "cve": "CVE-2016-2105", "top_k": 10, "threshold": None,
        })
        assert status == 200
        assert absent["hits"] == spelled["hits"]
        assert len(absent["hits"]) == min(10, absent["n_rows"])


class TestStalledBody:
    """A body that stops arriving frees its admission slot: the read is
    timed, and the slot is released with a typed 400."""

    def _stall(self, server, sends, pause_s):
        with socket.create_connection(
            server.server_address[:2], timeout=10
        ) as sock:
            sock.sendall(b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: 100\r\n\r\n")
            started = time.monotonic()
            for chunk in sends:  # until the server answers
                sock.sendall(chunk)
                if select.select([sock], [], [], pause_s)[0]:
                    break
            reply = b""
            while b"\r\n\r\n" not in reply:
                chunk = sock.recv(65536)
                assert chunk, "closed without a reply"
                reply += chunk
            return reply, time.monotonic() - started

    def test_stalled_body_is_400_and_frees_the_slot(self, server, monkeypatch):
        monkeypatch.setattr(server_module, "BODY_TIMEOUT_S", 0.5)
        reply, _elapsed = self._stall(server, [b'{"cve"'], 0)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        _status, health = _get(server, "/healthz")
        assert health["inflight"] == 0

    def test_a_trickled_body_is_timed_as_a_whole(self, server, monkeypatch):
        monkeypatch.setattr(server_module, "BODY_TIMEOUT_S", 0.5)
        reply, elapsed = self._stall(server, [b" "] * 8, 0.15)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"of 100 bytes arrived in 0.5 s" in reply
        assert elapsed < 0.5 + 8 * 0.15

    def test_the_keep_alive_wait_is_not_timed(self, server, monkeypatch):
        monkeypatch.setattr(server_module, "BODY_TIMEOUT_S", 0.2)
        conn = http.client.HTTPConnection(
            *server.server_address[:2], timeout=30
        )
        try:
            for _ in range(2):
                conn.request("POST", "/v1/query",
                             body=json.dumps({"cve": "CVE-2016-2105"}))
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                time.sleep(0.5)  # idle past the body timeout
        finally:
            conn.close()


# -- a fuzz generated from BODIES ---------------------------------------------

_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_OF_TYPE = {
    "string": st.text(max_size=12),
    "integer": st.integers(),
    "integer or null": st.none() | st.integers(-3, 20) | st.integers(),
    "number or null": st.none() | st.floats(),
}


def _bodies(fields, special, path="", clean=False):
    """Bodies for ``fields``: each declared key absent or of its type,
    and unless ``clean`` also junk values and an undeclared key, at any
    level; ``special`` holds the values that reach past the reader (a
    real binary, a known CVE, ...)."""
    values = {}
    for key, kind in fields.items():
        where = f"{path}.{key}" if path else key
        if isinstance(kind, dict):
            value = _bodies(kind, special, where, clean)
        elif isinstance(kind, list):
            value = st.lists(_bodies(kind[0], special, where + "[]", clean),
                             max_size=3)
        else:
            value = special.get(where.split("[].")[-1], _OF_TYPE[kind])
        values[key] = value if clean else value | _JUNK
    body = st.fixed_dictionaries({}, optional=values)
    if clean:
        return body
    undeclared = st.dictionaries(st.text(max_size=6), _JUNK, max_size=1)
    return st.tuples(body, undeclared).map(
        lambda parts: {**parts[1], **parts[0]}
    )


@pytest.fixture(scope="module")
def fuzz_server(trained_model):
    engine = AsteriaEngine(EngineConfig(), model=trained_model)
    engine.ingest(IngestRequest(corpus_images=1, corpus_seed=4))
    server = EngineServer(("127.0.0.1", 0), engine)
    server.errors = []  # what the stdlib would print as a traceback
    server.handle_error = lambda *_args: server.errors.append(
        traceback.format_exc()
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class _Tracebacks(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        if record.exc_info or record.levelno >= logging.ERROR:
            self.records.append(self.format(record))


class TestBodyFuzz:
    """Right and wrong types, undeclared keys at every level and nested
    junk on every POST endpoint but ``/v1/shutdown``: each answer is a
    200 or a typed 4xx, never a 500, a hang or a traceback."""

    @pytest.mark.parametrize(
        "path", [p for p in BODIES if p != "/v1/shutdown"]
    )
    def test_every_answer_is_200_or_a_typed_4xx(
        self, fuzz_server, query_binary, path
    ):
        blob = _b64(query_binary)
        names = [f.name for f in query_binary.functions][:2]
        strings = st.sampled_from([blob, blob, "!!!", "", "QUJD"])
        special = {
            "binary_b64": strings, "binary1_b64": strings,
            "binary2_b64": strings,
            "function": st.sampled_from(names + ["nope"]),
            "function1": st.sampled_from(names),
            "function2": st.sampled_from(names),
            "cve": st.sampled_from(["CVE-2016-2105", "CVE-1999-0000"]),
            "images": st.sampled_from(
                [-1, 0, 1, 2, MAX_CORPUS_IMAGES + 1, 10**8]
            ),
            "seed": st.sampled_from([0, 1, -1, 2**70]),
        }
        logs = _Tracebacks()
        logging.getLogger("repro").addHandler(logs)
        try:
            self._fuzz(fuzz_server, path, st.one_of(
                _bodies(BODIES[path], special, clean=True),
                _bodies(BODIES[path], special),
            ))
        finally:
            logging.getLogger("repro").removeHandler(logs)
        assert not logs.records, logs.records[0]
        assert not fuzz_server.errors, fuzz_server.errors[0]

    @staticmethod
    def _fuzz(server, path, bodies):
        @settings(max_examples=200, deadline=None, database=None)
        @given(body=bodies)
        def check(body):
            request = urllib.request.Request(
                server.url + path, data=json.dumps(body).encode()
            )
            try:  # a hang is the client's timeout, a failure
                with urllib.request.urlopen(request, timeout=60) as reply:
                    status, answer = reply.status, json.loads(reply.read())
            except urllib.error.HTTPError as error:
                status, answer = error.code, json.loads(error.read())
            assert status == 200 or (
                400 <= status < 500 and {"error", "exit_code"} <= set(answer)
            ), (status, answer, body)

        check()
