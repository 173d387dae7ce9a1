"""HTTP/JSON front-door tests for :class:`repro.serve.aio.AnalysisServer`.

Raw-socket clients (``asyncio.open_connection``) drive the stdlib HTTP loop
end to end against a real warmed cache: health, stats, analyze provenance,
every query op, classification, and the error surface (bad JSON, unknown
routes and ops, wrong methods, invalid config fields).
"""

from __future__ import annotations

import asyncio
import base64
import json
import logging
import shutil

import numpy as np
import pytest

from repro.core.config import AnalysisConfig
from repro.serve import codec
from repro.serve.aio import AnalysisServer, AsyncAnalysisService
from repro.serve.service import ANALYSIS_KIND, AnalysisService

CONFIG = AnalysisConfig(seed=5, scale=0.02)
CONFIG_JSON = {"seed": 5, "scale": 0.02}


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    cache = tmp_path_factory.mktemp("aio-server") / "cache"
    AnalysisService(cache).get_or_run(CONFIG)
    return cache


async def request(host, port, method, path, payload=None):
    """One one-shot HTTP exchange; returns (status, decoded JSON body)."""
    reader, writer = await asyncio.open_connection(host, port)
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_part, _, body_part = raw.partition(b"\r\n\r\n")
    status = int(head_part.split()[1])
    return status, json.loads(body_part)


def serve(warm_cache, scenario):
    """Run *scenario(host, port)* against a live server over the warm cache."""

    async def main():
        service = AsyncAnalysisService(AnalysisService(warm_cache))
        server = AnalysisServer(service)
        try:
            host, port = await server.start()
            return await scenario(host, port)
        finally:
            await server.aclose()

    return asyncio.run(main())


class TestRoutes:
    def test_healthz(self, warm_cache):
        async def scenario(host, port):
            return await request(host, port, "GET", "/healthz")

        status, payload = serve(warm_cache, scenario)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["inflight"] == 0

    def test_stats_reports_policies_and_counters(self, warm_cache):
        async def scenario(host, port):
            return await request(host, port, "GET", "/stats")

        status, payload = serve(warm_cache, scenario)
        assert status == 200
        assert payload["max_memory_entries"] == 32
        assert payload["disk_eviction"] == "none"
        assert payload["refresh"] == "none"
        assert payload["artifacts"]["analyses"] >= 1
        assert "coalesced_hits" in payload["counters"]
        assert payload["inflight"] == 0

    def test_analyze_serves_cached_analysis(self, warm_cache):
        async def scenario(host, port):
            return await request(
                host, port, "POST", "/analyze", {"config": CONFIG_JSON}
            )

        status, payload = serve(warm_cache, scenario)
        assert status == 200
        assert payload["served"]["source"] in ("memory", "disk")
        assert payload["served"]["coalesced"] is False
        assert payload["summary"]["n_regions"] >= 2

    def test_query_nearest(self, warm_cache):
        async def scenario(host, port):
            return await request(
                host,
                port,
                "POST",
                "/query",
                {"config": CONFIG_JSON, "op": "nearest", "cuisine": "Japanese", "k": 3},
            )

        status, payload = serve(warm_cache, scenario)
        assert status == 200
        assert len(payload["nearest"]) == 3
        assert {"cuisine", "distance"} <= set(payload["nearest"][0])

    def test_query_patterns_and_top_patterns(self, warm_cache):
        async def scenario(host, port):
            patterns = await request(
                host,
                port,
                "POST",
                "/query",
                {"config": CONFIG_JSON, "op": "patterns", "items": ["rice"], "limit": 4},
            )
            top = await request(
                host,
                port,
                "POST",
                "/query",
                {"config": CONFIG_JSON, "op": "top-patterns", "cuisine": "Japanese"},
            )
            return patterns, top

        (p_status, p_payload), (t_status, t_payload) = serve(warm_cache, scenario)
        assert p_status == 200 and t_status == 200
        assert len(p_payload["patterns"]) <= 4
        assert all("rice" in hit["pattern"] for hit in p_payload["patterns"])
        assert t_payload["patterns"], "warmed cache should have Japanese patterns"

    def test_query_authenticity_and_cuisine_card(self, warm_cache):
        async def scenario(host, port):
            auth = await request(
                host,
                port,
                "POST",
                "/query",
                {"config": CONFIG_JSON, "op": "authenticity", "item": "soy sauce"},
            )
            card = await request(
                host,
                port,
                "POST",
                "/query",
                {"config": CONFIG_JSON, "op": "cuisine", "cuisine": "Japanese", "k": 2},
            )
            return auth, card

        (a_status, a_payload), (c_status, c_payload) = serve(warm_cache, scenario)
        assert a_status == 200 and c_status == 200
        assert a_payload["authenticity"]
        assert c_payload["cuisine"]["cuisine"] == "Japanese"

    def test_classify(self, warm_cache):
        async def scenario(host, port):
            return await request(
                host,
                port,
                "POST",
                "/classify",
                {
                    "config": CONFIG_JSON,
                    "recipes": [["soy sauce", "rice"], "garlic, olive oil"],
                    "top": 2,
                },
            )

        status, payload = serve(warm_cache, scenario)
        assert status == 200
        assert len(payload["classifications"]) == 2
        first = payload["classifications"][0]
        assert first["best"]
        assert len(first["ranked"]) == 2

    def test_concurrent_http_requests_coalesce(self, tmp_path):
        """Cold cache + parallel HTTP clients: one compute behind the server."""
        service = AnalysisService(tmp_path / "cache")

        async def main():
            async_service = AsyncAnalysisService(service)
            server = AnalysisServer(async_service)
            try:
                host, port = await server.start()
                return await asyncio.gather(
                    *(
                        request(host, port, "POST", "/analyze", {"config": CONFIG_JSON})
                        for _ in range(6)
                    )
                )
            finally:
                await server.aclose()

        responses = asyncio.run(main())
        assert all(status == 200 for status, _ in responses)
        computed = [p for _, p in responses if p["served"]["source"] == "computed"]
        assert computed, "someone must have carried the compute"
        assert service.store.stats.coalesced_hits >= 1
        assert sum(p["served"]["coalesced"] for _, p in responses) >= 1


class TestErrorSurface:
    def test_unknown_route_is_404(self, warm_cache):
        async def scenario(host, port):
            return await request(host, port, "GET", "/nope")

        status, payload = serve(warm_cache, scenario)
        assert status == 404
        assert "unknown route" in payload["error"]

    def test_wrong_method_is_405(self, warm_cache):
        async def scenario(host, port):
            return await request(host, port, "GET", "/analyze")

        status, payload = serve(warm_cache, scenario)
        assert status == 405
        assert "POST" in payload["error"]

    def test_bad_json_body_is_400(self, warm_cache):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            body = b"{not json"
            writer.write(
                b"POST /analyze HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body)
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return int(raw.split()[1])

        assert serve(warm_cache, scenario) == 400

    def test_unknown_config_field_is_400(self, warm_cache):
        async def scenario(host, port):
            return await request(
                host, port, "POST", "/analyze", {"config": {"warp_factor": 9}}
            )

        status, payload = serve(warm_cache, scenario)
        assert status == 400
        assert "warp_factor" in payload["error"]

    def test_invalid_config_value_is_400(self, warm_cache):
        async def scenario(host, port):
            return await request(
                host, port, "POST", "/analyze", {"config": {"scale": -1}}
            )

        status, payload = serve(warm_cache, scenario)
        assert status == 400
        assert "scale" in payload["error"]

    def test_unknown_query_op_is_400(self, warm_cache):
        async def scenario(host, port):
            return await request(
                host, port, "POST", "/query", {"config": CONFIG_JSON, "op": "teleport"}
            )

        status, payload = serve(warm_cache, scenario)
        assert status == 400
        assert "unknown query op" in payload["error"]

    def test_missing_query_field_is_400(self, warm_cache):
        async def scenario(host, port):
            return await request(
                host, port, "POST", "/query", {"config": CONFIG_JSON, "op": "nearest"}
            )

        status, payload = serve(warm_cache, scenario)
        assert status == 400
        assert "cuisine" in payload["error"]

    def test_empty_classify_batch_is_400(self, warm_cache):
        async def scenario(host, port):
            return await request(
                host, port, "POST", "/classify", {"config": CONFIG_JSON, "recipes": []}
            )

        status, payload = serve(warm_cache, scenario)
        assert status == 400
        assert "recipes" in payload["error"]

    def test_request_limit_stops_the_server(self, warm_cache):
        async def main():
            service = AsyncAnalysisService(AnalysisService(warm_cache))
            server = AnalysisServer(service, request_limit=2)
            try:
                host, port = await server.start()
                await request(host, port, "GET", "/healthz")
                await request(host, port, "GET", "/healthz")
                await asyncio.wait_for(server.serve_until_done(), timeout=5)
                return server.requests_served
            finally:
                await server.aclose()

        assert asyncio.run(main()) == 2

    def test_wrong_typed_config_value_is_400_not_500(self, warm_cache):
        async def scenario(host, port):
            return await request(
                host, port, "POST", "/analyze", {"config": {"scale": "0.1"}}
            )

        status, payload = serve(warm_cache, scenario)
        assert status == 400
        assert "config" in payload["error"] or "invalid" in payload["error"]

    def test_string_distance_metrics_is_400(self, warm_cache):
        async def scenario(host, port):
            return await request(
                host,
                port,
                "POST",
                "/analyze",
                {"config": {"distance_metrics": "euclidean"}},
            )

        status, payload = serve(warm_cache, scenario)
        assert status == 400
        assert "distance_metrics" in payload["error"]


# -- keep-alive wire behaviour --------------------------------------------------------


def _frame(method, path, payload=None, connection=None, version="HTTP/1.1"):
    """One Content-Length-framed request, ready to write on a live socket."""
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = f"{method} {path} {version}\r\nHost: test\r\nContent-Length: {len(body)}\r\n"
    if connection is not None:
        head += f"Connection: {connection}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


async def _read_framed(reader):
    """One framed response: ``(status, headers, json body)`` -- no EOF needed."""
    raw_head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=10)
    lines = raw_head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if _:
            headers[name.strip().lower()] = value.strip()
    body = await asyncio.wait_for(
        reader.readexactly(int(headers["content-length"])), timeout=10
    )
    return status, headers, json.loads(body)


class TestKeepAlive:
    def test_many_requests_ride_one_connection(self, warm_cache):
        """HTTP/1.1 default: >= 8 framed requests served on a single socket."""

        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            exchanges = []
            for _ in range(8):
                writer.write(_frame("GET", "/healthz"))
                await writer.drain()
                exchanges.append(await _read_framed(reader))
            writer.close()
            await writer.wait_closed()
            return exchanges

        exchanges = serve(warm_cache, scenario)
        assert len(exchanges) == 8
        for status, headers, payload in exchanges:
            assert status == 200
            assert headers["connection"] == "keep-alive"
            assert payload["status"] == "ok"

    def test_interleaved_analyze_and_stats_share_a_socket(self, warm_cache):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            exchanges = []
            for _ in range(4):
                writer.write(
                    _frame("POST", "/analyze", {"config": CONFIG_JSON})
                )
                await writer.drain()
                exchanges.append(await _read_framed(reader))
                writer.write(_frame("GET", "/stats"))
                await writer.drain()
                exchanges.append(await _read_framed(reader))
            writer.close()
            await writer.wait_closed()
            return exchanges

        exchanges = serve(warm_cache, scenario)
        assert [status for status, _, _ in exchanges] == [200] * 8
        analyses = exchanges[0::2]
        stats = exchanges[1::2]
        assert all(p["served"]["source"] in ("memory", "disk") for _, _, p in analyses)
        assert all("counters" in p for _, _, p in stats)

    def test_connection_close_is_honoured(self, warm_cache):
        """An explicit ``Connection: close`` tears the socket down afterwards."""

        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(_frame("GET", "/healthz", connection="close"))
            await writer.drain()
            status, headers, _ = await _read_framed(reader)
            trailing = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            return status, headers, trailing

        status, headers, trailing = serve(warm_cache, scenario)
        assert status == 200
        assert headers["connection"] == "close"
        assert trailing == b""  # server closed; nothing rides the socket after

    def test_http_1_0_defaults_to_close(self, warm_cache):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(_frame("GET", "/healthz", version="HTTP/1.0"))
            await writer.drain()
            status, headers, _ = await _read_framed(reader)
            trailing = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            return status, headers, trailing

        status, headers, trailing = serve(warm_cache, scenario)
        assert status == 200
        assert headers["connection"] == "close"
        assert trailing == b""

    def test_oversized_body_is_413_and_closes_mid_stream(self, warm_cache):
        """A huge Content-Length is refused before the body and ends the session."""

        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            # Keep-alive request first: proves the same socket was persistent.
            writer.write(_frame("GET", "/healthz"))
            await writer.drain()
            first_status, _, _ = await _read_framed(reader)
            head = (
                "POST /analyze HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {5 * 1024 * 1024}\r\n\r\n"
            )
            writer.write(head.encode("latin-1"))  # never sends the body
            await writer.drain()
            status, headers, payload = await _read_framed(reader)
            trailing = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            return first_status, status, headers, payload, trailing

        first_status, status, headers, payload, trailing = serve(warm_cache, scenario)
        assert first_status == 200
        assert status == 413
        assert headers["connection"] == "close"
        assert "too large" in payload["error"]
        assert trailing == b""  # framing is void after an error: server closed


class TestShutdown:
    def test_aclose_closes_an_idle_keep_alive_connection(self, warm_cache, caplog):
        """An idle client neither holds ``aclose`` up nor leaves a task to cancel."""

        async def main():
            server = AnalysisServer(AsyncAnalysisService(AnalysisService(warm_cache)))
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(_frame("GET", "/healthz"))
                await writer.drain()
                status, headers, _ = await _read_framed(reader)
                await asyncio.wait_for(server.aclose(), 2)
                trailing = await asyncio.wait_for(reader.read(), timeout=2)
            finally:
                writer.close()
                await writer.wait_closed()
            return status, headers["connection"], trailing

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            outcome = asyncio.run(main())
        assert outcome == (200, "keep-alive", b"")
        assert [record.getMessage() for record in caplog.records] == []


# -- client garbage -------------------------------------------------------------------


def _head(content_length: bytes) -> bytes:
    return b"POST /analyze HTTP/1.1\r\nHost: test\r\nContent-Length: " + content_length + b"\r\n\r\n"


_NON_UTF8 = b'{"a":"\xff"}'
_SMALL_CONFIG = b'{"config": {"seed": 3, "scale": 0.01}}'


def _post(path: bytes, body: bytes) -> bytes:
    head = b"POST %s HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n"
    return head % (path, len(body)) + body


_FRACTIONAL_SEED = _post(b"/analyze", b'{"config": {"seed": 1.5, "scale": 0.01}}')
_CONFIG_BYTES = json.dumps(CONFIG_JSON).encode("utf-8")

GARBAGE = {
    # readexactly(-1) used to raise ValueError: a 500.
    "negative-length": (_head(b"-1"), 400),
    # int() accepts these; HTTP does not.
    "signed-length": (_head(b"+5"), 400),
    "underscored-length": (_head(b"1_0"), 400),
    "non-ascii-digit-length": (_head("٣".encode("utf-8")), 400),
    # Past 4300 digits int() itself raises ValueError.
    "huge-length": (_head(b"9" * 5000), 413),
    # json.loads(bytes) raised UnicodeDecodeError, not JSONDecodeError: a 500.
    "non-utf8-body": (_head(b"%d" % len(_NON_UTF8)) + _NON_UTF8, 400),
    # Past asyncio's 64 KiB line limit readline() raised ValueError: a 500.
    "huge-request-line": (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 400),
    "huge-header-line": (
        b"GET /healthz HTTP/1.1\r\nX-Padding: " + b"a" * 70_000 + b"\r\n\r\n",
        400,
    ),
    # A chunked body was skipped and the default config served in its place.
    "chunked-body": (
        b"POST /analyze HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        + b"%x\r\n" % len(_SMALL_CONFIG) + _SMALL_CONFIG + b"\r\n0\r\n\r\n",
        501,
    ),
    # Two differing lengths were taken last-wins.
    "conflicting-lengths": (
        b"POST /analyze HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
        b"Content-Length: 0\r\nContent-Length: %d\r\n\r\n" % len(_SMALL_CONFIG)
        + _SMALL_CONFIG,
        400,
    ),
    # Config values that passed validation and failed in the run (SeedSequence
    # rejects 1.5) or in the cache key (JSON's 1e309 parses to inf, which
    # the canonical key text cannot hold): a 500.
    "fractional-seed": (_FRACTIONAL_SEED, 400),
    "infinite-scale": (_post(b"/analyze", b'{"config": {"scale": 1e309}}'), 400),
    # Any finite scale was accepted: 50 started a 5.9M-recipe compute.
    "oversized-scale": (_post(b"/analyze", b'{"config": {"scale": 50}}'), 400),
    # int(float("inf")) raised OverflowError, which _int did not catch: a 500.
    "overflowing-k": (
        _post(
            b"/query",
            b'{"config": %s, "op": "top-patterns", "cuisine": "Japanese", "k": 1e309}'
            % _CONFIG_BYTES,
        ),
        400,
    ),
    "overflowing-top": (
        _post(b"/classify", b'{"config": %s, "recipes": ["rice"], "top": 1e309}' % _CONFIG_BYTES),
        400,
    ),
    # The header count had no cap.
    "too-many-headers": (
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
        + b"".join(b"X-Filler-%d: x\r\n" % index for index in range(100))
        + b"\r\n",
        431,
    ),
    # k, limit and top were coerced with int() and clamped, each a wrong 200:
    # hits[:-1] served 224 of 225 hits, 2.7 -> 2, true -> 1, "7" -> 7, and
    # a top of 0 or below became 1.
    "negative-limit": (
        _post(
            b"/query",
            b'{"config": %s, "op": "patterns", "items": ["rice"], "limit": -1}' % _CONFIG_BYTES,
        ),
        400,
    ),
    "fractional-k": (
        _post(
            b"/query",
            b'{"config": %s, "op": "top-patterns", "cuisine": "Japanese", "k": 2.7}'
            % _CONFIG_BYTES,
        ),
        400,
    ),
    "boolean-k": (
        _post(
            b"/query",
            b'{"config": %s, "op": "nearest", "cuisine": "Japanese", "k": true}' % _CONFIG_BYTES,
        ),
        400,
    ),
    "string-k": (
        _post(
            b"/query",
            b'{"config": %s, "op": "cuisine", "cuisine": "Japanese", "k": "7"}' % _CONFIG_BYTES,
        ),
        400,
    ),
    "zero-top": (
        _post(b"/classify", b'{"config": %s, "recipes": ["rice"], "top": 0}' % _CONFIG_BYTES),
        400,
    ),
}


def _exchange(warm_cache, data: bytes, *, eof: bool = False):
    """Write *data* on a fresh socket (then ``write_eof()`` if *eof*) and read to EOF.

    Returns ``(raw response bytes, request_errors, requests_served)``;
    reaching EOF at all proves the server closed the connection.
    """

    async def main():
        service = AsyncAnalysisService(AnalysisService(warm_cache))
        server = AnalysisServer(service)
        try:
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(data)
            if eof:
                writer.write_eof()
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            return raw, service.service.store.stats.request_errors, server.requests_served
        finally:
            await server.aclose()

    return asyncio.run(main())


def _send_raw(warm_cache, data: bytes):
    """Send *data* and parse the one response: ``(status, headers, json body, request_errors)``."""
    raw, request_errors, _served = _exchange(warm_cache, data)
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers, json.loads(body), request_errors


#: Requests the client stops sending part-way: EOF inside the head or body.
CUT_SHORT = {
    "body-cut-by-eof": b"GET /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nab",
    "head-cut-by-eof": b"GET /healthz HTTP/1.1\r\nHost: x",
    "body-cut-before-its-first-byte": b"GET /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\n",
    "head-cut-after-a-whole-header": b"GET /healthz HTTP/1.1\r\nHost: x\r\n",
    "head-cut-after-the-request-line": b"GET /healthz HTTP/1.1\r\n",
}


class TestClientGarbage:
    @pytest.mark.parametrize("case", sorted(CUT_SHORT))
    def test_a_request_cut_short_by_eof_is_not_answered(self, warm_cache, case):
        raw, request_errors, requests_served = _exchange(
            warm_cache, CUT_SHORT[case], eof=True
        )
        assert raw == b""
        assert request_errors == 0
        assert requests_served == 0

    def test_eof_before_a_request_line_is_the_clean_exit(self, warm_cache):
        raw, request_errors, requests_served = _exchange(warm_cache, b"", eof=True)
        assert raw == b""
        assert request_errors == 0
        assert requests_served == 0

    def test_a_whole_request_then_eof_is_answered_once(self, warm_cache):
        raw, request_errors, requests_served = _exchange(
            warm_cache, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", eof=True
        )
        assert raw.startswith(b"HTTP/1.1 200 ")
        assert raw.count(b"HTTP/1.1 ") == 1
        assert request_errors == 0
        assert requests_served == 1

    @pytest.mark.parametrize("case", sorted(GARBAGE))
    def test_garbage_is_a_client_error_and_closes(self, warm_cache, case):
        data, expected = GARBAGE[case]
        status, headers, payload, request_errors = _send_raw(warm_cache, data)
        assert status == expected
        assert headers["connection"] == "close"
        assert "error_id" not in payload
        assert request_errors == 0

    def test_fractional_seeds_leave_health_ok(self, warm_cache):
        """Rejected configs never reach a compute, so they cannot flip health."""

        async def scenario(host, port):
            statuses = []
            for _ in range(3):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(_FRACTIONAL_SEED)
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                await writer.wait_closed()
                statuses.append(int(raw.split()[1]))
            return statuses, await request(host, port, "GET", "/healthz")

        statuses, (status, payload) = serve(warm_cache, scenario)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["compute_failures"] == 0
        assert statuses == [400, 400, 400]


def _nan_first(node):
    raw = bytearray(base64.b64decode(node[codec.PACKED_MARKER]))
    raw[:8] = np.array([np.nan], dtype="<f8").tobytes()
    node[codec.PACKED_MARKER] = base64.b64encode(bytes(raw)).decode("ascii")


#: One corruption of Figure 5's packed feature matrix per malformed-node kind.
PACKED_CORRUPTIONS = {
    "bad-base64": lambda node: node.update({codec.PACKED_MARKER: "*" + node[codec.PACKED_MARKER][1:]}),
    "wrong-length": lambda node: node.update({"shape": [node["shape"][0], node["shape"][1] + 1]}),
    "bad-shape": lambda node: node.update({"shape": [node["shape"][0], float(node["shape"][1])]}),
    "non-finite": _nan_first,
}


class TestCorruptPackedArtifact:
    @pytest.mark.parametrize("corrupt", PACKED_CORRUPTIONS.values(), ids=PACKED_CORRUPTIONS.keys())
    def test_is_recomputed_not_a_500(self, warm_cache, tmp_path, corrupt):
        cache = tmp_path / "cache"
        shutil.copytree(warm_cache, cache)
        path = AnalysisService(cache).store.path_for(ANALYSIS_KIND, codec.analysis_key(CONFIG))
        artifact = json.loads(path.read_text(encoding="utf-8"))
        corrupt(artifact["figure5_authenticity"]["features"]["values"])
        path.write_text(json.dumps(artifact), encoding="utf-8")

        async def scenario(host, port):
            analyze = await request(host, port, "POST", "/analyze", {"config": CONFIG_JSON})
            return analyze, await request(host, port, "GET", "/stats")

        (status, payload), (_status, stats) = serve(cache, scenario)
        assert status == 200
        assert payload["served"]["source"] == "computed"
        assert stats["counters"]["corrupt_recovered"] == 1
        assert stats["counters"]["request_errors"] == 0
        assert path.with_suffix(".json.corrupt").exists()
