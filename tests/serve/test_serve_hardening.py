"""Serve-path hardening: header parsing, shedding status codes, and
well-formed stream termination when a query dies mid-NDJSON-stream.

A stub engine keeps these deterministic — no real kernel, no timing: the
server only needs ``sql_async`` / ``stats`` / ``_closed`` from it.
"""

import asyncio
import http.client
import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.engine import AdmissionRejected, EngineClosed
from repro.serve import QueryServer


class StubResult:
    columns = ("a",)
    mode = "central"
    elapsed = 0.25
    total_calls = 0
    cache_stats = None
    spans = None

    def __init__(self, rows):
        self.rows = rows


class StubStats:
    queries = 0

    def as_dict(self):
        return {"queries": self.queries}


class StubEngine:
    """Engine facade whose behavior per request is a plain callable."""

    _closed = False

    def __init__(self, behavior):
        self._behavior = behavior

    def stats(self):
        return StubStats()

    async def sql_async(self, sql_text, **kwargs):
        return await self._behavior(sql_text, **kwargs)


@contextmanager
def running_server(engine):
    server = QueryServer(engine, port=0)
    ready = threading.Event()

    def run() -> None:
        async def main() -> None:
            await server.start()
            ready.set()
            await server.run()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    try:
        yield server
    finally:
        server.stop()
        thread.join(10)
        assert not thread.is_alive()


async def _ok(sql_text, **kwargs):
    return StubResult([[1], [2], [3]])


def raw_exchange(port: int, data: bytes) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            received = sock.recv(65536)
            if not received:
                break
            chunks.append(received)
    return b"".join(chunks)


def request(server, method, path, body=None, raw_body=None):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    connection.request(
        method,
        path,
        body=raw_body if raw_body is not None else (
            None if body is None else json.dumps(body)
        ),
    )
    response = connection.getresponse()
    payload = response.read().decode("utf-8")
    connection.close()
    return response, payload


# -- request parsing (satellite: malformed Content-Length et al.) ---------------


def test_malformed_content_length_is_a_400_not_a_500() -> None:
    with running_server(StubEngine(_ok)) as server:
        reply = raw_exchange(
            server.port,
            b"POST /sql HTTP/1.1\r\nHost: t\r\nContent-Length: abc\r\n\r\n",
        )
    status = reply.split(b"\r\n", 1)[0]
    assert b"400" in status, reply
    assert b"Content-Length" in reply


def test_negative_content_length_is_a_400() -> None:
    with running_server(StubEngine(_ok)) as server:
        reply = raw_exchange(
            server.port,
            b"POST /sql HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n",
        )
    assert b"400" in reply.split(b"\r\n", 1)[0], reply
    assert b"negative" in reply


def test_missing_body_post_is_a_clean_400() -> None:
    with running_server(StubEngine(_ok)) as server:
        response, payload = request(server, "POST", "/sql")
        assert response.status == 400
        assert "body" in json.loads(payload)["error"]
        # The missing-body check must not leak onto other endpoints:
        # a bodyless POST to a GET-only path is still a 405.
        response, _ = request(server, "POST", "/stats")
        assert response.status == 405


def test_bad_tenant_and_deadline_fields_are_400s() -> None:
    with running_server(StubEngine(_ok)) as server:
        for options in (
            {"tenant": 7},
            {"tenant": "  "},
            {"deadline_ms": -10},
            {"deadline_ms": 0},
            {"deadline_ms": True},
            {"deadline_ms": "soon"},
        ):
            body = {"sql": "Select 1", "options": options}
            response, payload = request(server, "POST", "/sql", body)
            assert response.status == 400, (body, payload)


def test_tenant_and_deadline_are_forwarded_to_the_engine() -> None:
    seen = {}

    async def capture(sql_text, **kwargs):
        seen.update(kwargs)
        return StubResult([])

    with running_server(StubEngine(capture)) as server:
        response, _ = request(
            server,
            "POST",
            "/sql",
            {
                "sql": "Select 1",
                "options": {"tenant": "analytics", "deadline_ms": 1500},
            },
        )
        assert response.status == 200
    assert seen["options"].tenant == "analytics"
    assert seen["options"].deadline_ms == 1500


# -- admission status codes ------------------------------------------------------


def test_shed_query_maps_to_429_with_retry_after() -> None:
    async def shed(sql_text, **kwargs):
        raise AdmissionRejected(
            "deadline 100ms cannot be met", retry_after=2.4, tenant="t"
        )

    with running_server(StubEngine(shed)) as server:
        response, payload = request(server, "POST", "/sql", {"sql": "Select 1"})
    assert response.status == 429
    assert response.getheader("Retry-After") == "3"
    body = json.loads(payload)
    assert body["retry_after"] == pytest.approx(2.4)
    assert body["tenant"] == "t"


def test_engine_closed_maps_to_503() -> None:
    async def closed(sql_text, **kwargs):
        raise EngineClosed("QueryEngine is closed")

    with running_server(StubEngine(closed)) as server:
        response, payload = request(server, "POST", "/sql", {"sql": "Select 1"})
    assert response.status == 503
    assert "closed" in json.loads(payload)["error"]


# -- shutdown-vs-in-flight (satellite: no severed NDJSON bodies) -----------------


class ExplodingRows:
    """Looks like a row list; dies after two rows (a query killed by a
    kernel shutdown mid-stream behaves exactly like this to the writer)."""

    def __len__(self):
        return 5

    def __iter__(self):
        yield [1]
        yield [2]
        raise RuntimeError("kernel shut down mid-stream")


def test_mid_stream_failure_ends_with_error_trailer_and_final_chunk() -> None:
    async def explode(sql_text, **kwargs):
        return StubResult(ExplodingRows())

    with running_server(StubEngine(explode)) as server:
        # http.client decodes chunked bodies and raises IncompleteRead on
        # a severed stream — reading to completion IS the assertion that
        # the body was well-formed.
        response, payload = request(server, "POST", "/sql", {"sql": "Select 1"})
    assert response.status == 200
    lines = [json.loads(line) for line in payload.strip().split("\n")]
    assert lines[0] == {"columns": ["a"]}
    assert lines[1:3] == [[1], [2]]
    trailer = lines[-1]
    assert "error" in trailer
    assert "mid-stream" in trailer["error"]
    assert trailer["rows_sent"] == 2


def test_stop_during_inflight_query_still_delivers_full_body() -> None:
    release = asyncio.Event()

    async def slow(sql_text, **kwargs):
        await release.wait()
        return StubResult([[i] for i in range(250)])

    engine = StubEngine(slow)
    with running_server(engine) as server:
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        connection.request("POST", "/sql", body=json.dumps({"sql": "Select 1"}))
        # Let the request reach the handler, then shut the server down
        # while the query is still in flight.
        time.sleep(0.2)
        server.stop()
        time.sleep(0.1)
        server._loop.call_soon_threadsafe(release.set)
        response = connection.getresponse()
        payload = response.read().decode("utf-8")
        connection.close()
        assert response.status == 200
        lines = [json.loads(line) for line in payload.strip().split("\n")]
        assert lines[-1]["rows"] == 250
        assert len(lines) == 252  # header + rows + trailer, nothing severed
