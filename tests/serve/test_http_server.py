"""The HTTP front end: POST /sql streaming NDJSON over a warm engine.

The server's accept loop runs inside the engine's resident kernel in a
background thread; the tests talk to it with plain ``http.client`` like
any external client would.
"""

import http.client
import json
import threading

import pytest

from repro import QUERY1_SQL, AsyncioKernel, QueryEngine, WSMED
from repro.serve import QueryServer

#: The nested "options" object of a parallel {5,4} Query1 request.
PARALLEL = {"mode": "parallel", "fanouts": [5, 4]}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    kernel = AsyncioKernel(resident=True)
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    engine = QueryEngine(wsmed, kernel=kernel)
    http_server = QueryServer(
        engine, port=0, trace_dir=str(tmp_path_factory.mktemp("traces"))
    )
    ready = threading.Event()

    def run() -> None:
        async def main() -> None:
            await http_server.start()
            ready.set()
            await http_server.run()

        kernel.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"
    yield http_server
    http_server.stop()
    thread.join(10)
    assert not thread.is_alive()
    engine.close()
    kernel.shutdown()


def request(server, method, path, body=None):
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=60
    )
    connection.request(
        method, path, body=None if body is None else json.dumps(body)
    )
    response = connection.getresponse()
    payload = response.read().decode("utf-8")
    connection.close()
    return response, payload


def query(server, body):
    response, payload = request(server, "POST", "/sql", body)
    assert response.status == 200, payload
    lines = [json.loads(line) for line in payload.strip().split("\n")]
    return lines[0], lines[1:-1], lines[-1]


def test_healthz(server) -> None:
    response, payload = request(server, "GET", "/healthz")
    assert response.status == 200
    assert json.loads(payload)["status"] == "ok"


def test_sql_streams_rows_as_ndjson(server) -> None:
    header, rows, trailer = query(
        server, {"sql": QUERY1_SQL, "options": PARALLEL}
    )
    assert header["columns"] == ["placename", "state"]
    assert len(rows) == 360
    assert trailer["rows"] == 360
    assert trailer["total_calls"] == 311
    assert trailer["mode"] == "parallel"
    assert all(len(row) == 2 for row in rows)


def test_traced_request_exports_a_chrome_trace(server) -> None:
    _, _, trailer = query(
        server,
        {
            "sql": QUERY1_SQL,
            "trace": True,
            "options": {**PARALLEL, "name": "Traced"},
        },
    )
    trace_file = trailer["trace_file"]
    with open(trace_file, encoding="utf-8") as handle:
        trace = json.load(handle)
    assert trace["traceEvents"], "trace must contain events"

    from repro.obs.validate import validate_chrome_trace

    assert validate_chrome_trace(trace) == []


def test_repeated_queries_hit_the_warm_engine(server) -> None:
    for _ in range(2):
        query(server, {"sql": QUERY1_SQL, "options": PARALLEL})
    response, payload = request(server, "GET", "/stats")
    assert response.status == 200
    stats = json.loads(payload)
    assert stats["queries"] >= 2
    assert stats["warm_leases"] >= 1


def test_cached_request_reports_cache_counters(server) -> None:
    _, _, trailer = query(
        server,
        {"sql": QUERY1_SQL, "options": {**PARALLEL, "cache": True}},
    )
    assert trailer["cache"]["misses"] > 0


def test_malformed_json_is_a_400(server) -> None:
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    connection.request("POST", "/sql", body="this is not json")
    response = connection.getresponse()
    assert response.status == 400
    assert "error" in json.loads(response.read())
    connection.close()


def test_bad_sql_is_a_400(server) -> None:
    response, payload = request(server, "POST", "/sql", {"sql": "Select nonsense"})
    assert response.status == 400
    assert "error" in json.loads(payload)


def test_unknown_field_is_a_400(server) -> None:
    response, payload = request(
        server, "POST", "/sql", {"sql": "SELECT 1", "bogus": True}
    )
    assert response.status == 400
    assert "bogus" in json.loads(payload)["error"]


def test_unknown_path_is_a_404_and_wrong_method_a_405(server) -> None:
    response, _ = request(server, "GET", "/nope")
    assert response.status == 404
    response, _ = request(server, "GET", "/sql")
    assert response.status == 405
