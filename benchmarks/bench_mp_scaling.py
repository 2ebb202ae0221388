"""Multi-process kernel scaling: sharding blocking provider work.

The single-process kernels model web-service latency as *async* sleeps,
which is why asyncio tasks are a faithful stand-in for the paper's query
processes.  But a real mediator's call path is often *synchronous*: a
SOAP client library (or server-side marshalling work) holds the calling
thread for the duration of the call.  Under ``AsyncioKernel`` such a
call blocks the whole event loop — every other query process stalls —
so total wall time degenerates to the serial sum.  The
:class:`~repro.runtime.multiprocess.ProcessKernel` shards the child
pools across OS worker processes (``local_services=True`` ships the
service registry so workers execute calls in-process), so blocking calls
in different workers genuinely overlap.

The workload is a dependent join GetAllStates -> HashState where the
HashState provider is deliberately synchronous: each call burns a PBKDF2
digest and holds its thread for a fixed work interval.  Measured rows:

* ``AsyncioKernel`` (everything on one loop) — the serial baseline;
* ``ProcessKernel`` at 1/2/4/8 workers, same query, same fanout;
* the HTTP front end (``repro.serve``): cold/warm request latency and
  sequential request throughput over a resident engine.

Checked claim (full mode): at 4 workers the wall-clock speedup over the
asyncio baseline is >= 2x, and every kernel returns the identical bag of
rows.

Usage::

    python -m benchmarks.bench_mp_scaling [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import threading
import time

from repro import QUERY1_SQL, AsyncioKernel, QueryEngine, QueryOptions, WSMED, build_registry
from repro.runtime.multiprocess import ProcessKernel
from repro.services.latency import EndpointProfile
from repro.services.registry import ServiceCosts

WORKER_COUNTS = (1, 2, 4, 8)
FANOUT = [8]
TIME_SCALE = 0.0005  # model seconds are negligible; blocking work dominates
WORK_SECONDS = 0.02  # per-call synchronous hold (client library + server)
PBKDF2_ITERATIONS = 20_000

HASH_SQL = """
Select gs.Name, hs.digest
From   GetAllStates gs, HashState hs
Where  hs.state = gs.State
"""

HASH_WSDL = """\
<definitions name="HashService" targetNamespace="urn:bench:hash">
  <types>
    <schema>
      <element name="HashState">
        <complexType><sequence>
          <element name="state" type="xsd:string"/>
        </sequence></complexType>
      </element>
      <element name="HashStateResponse">
        <complexType><sequence>
          <element name="HashStateResult">
            <complexType><sequence>
              <element name="Digests" maxOccurs="unbounded">
                <complexType><sequence>
                  <element name="digest" type="xsd:string"/>
                </sequence></complexType>
              </element>
            </sequence></complexType>
          </element>
        </sequence></complexType>
      </element>
    </schema>
  </types>
  <portType name="HashSoap">
    <operation name="HashState">
      <input element="HashState"/>
      <output element="HashStateResponse"/>
    </operation>
  </portType>
  <service name="HashService">
    <port name="HashSoap"/>
  </service>
</definitions>
"""


class HashProvider:
    """A synchronous provider: every call holds the calling thread.

    Module-level class so the instance pickles into the workers
    (``local_services=True``).  The deterministic PBKDF2 digest makes
    row-identity across kernels checkable.
    """

    uri = "http://sim.example.com/hash.wsdl"
    work_seconds = WORK_SECONDS
    iterations = PBKDF2_ITERATIONS

    def __init__(self, geodata) -> None:
        self.work_seconds = type(self).work_seconds
        self.iterations = type(self).iterations

    def wsdl_text(self) -> str:
        return HASH_WSDL

    def invoke(self, operation: str, arguments: list) -> dict:
        (state_name,) = arguments
        digest = hashlib.pbkdf2_hmac(
            "sha256", state_name.encode(), b"mp-scaling", self.iterations
        ).hex()
        time.sleep(self.work_seconds)  # the synchronous client library hold
        return {"HashStateResult": {"Digests": [{"digest": digest}]}}


def build_wsmed() -> WSMED:
    registry = build_registry(
        "fast",
        extra_providers=(HashProvider,),
        extra_costs={
            "HashService": ServiceCosts(
                capacity=64,
                operations={
                    "HashState": EndpointProfile(
                        rtt=0.01,
                        setup=0.0,
                        service_time=0.01,
                        jitter=0.0,
                        overload_penalty=0.0,
                        overload_quadratic=0.0,
                    )
                },
            )
        },
    )
    wsmed = WSMED(registry, profile="fast")
    wsmed.import_all()
    return wsmed


def _timed_query(wsmed: WSMED, kernel) -> tuple[float, object]:
    started = time.perf_counter()
    options = QueryOptions(mode="parallel", fanouts=FANOUT, kernel=kernel)
    result = wsmed.sql(HASH_SQL, options=options)
    return time.perf_counter() - started, result


def measure_asyncio(wsmed: WSMED) -> dict:
    """The serial baseline: blocking calls stall the single event loop."""
    walls = []
    for _ in range(2):  # first round doubles as warm-up; keep the best
        wall, result = _timed_query(wsmed, AsyncioKernel(time_scale=TIME_SCALE))
        walls.append(wall)
    return {
        "kernel": "asyncio",
        "workers": 0,
        "wall_s": min(walls),
        "rows": len(result.rows),
        "calls": result.total_calls,
        "bag": sorted(result.rows),
    }


def measure_process(wsmed: WSMED, workers: int) -> dict:
    with ProcessKernel(
        workers=workers, time_scale=TIME_SCALE, local_services=True
    ) as kernel:
        # Warm-up run pays fleet spawn + code shipping; the measured run
        # is the steady state a resident deployment serves.
        _timed_query(wsmed, kernel)
        wall, result = _timed_query(wsmed, kernel)
    return {
        "kernel": "process",
        "workers": workers,
        "wall_s": wall,
        "rows": len(result.rows),
        "calls": result.total_calls,
        "bag": sorted(result.rows),
    }


def measure_http() -> dict:
    """Front-end overhead: Query1 over the HTTP server on a warm engine."""
    from repro.serve import QueryServer

    kernel = AsyncioKernel(resident=True, time_scale=TIME_SCALE)
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    engine = QueryEngine(wsmed, kernel=kernel)
    server = QueryServer(engine, port=0)
    ready = threading.Event()

    def run() -> None:
        async def main() -> None:
            await server.start()
            ready.set()
            await server.run()

        kernel.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not start"

    def one_request() -> tuple[float, int]:
        body = json.dumps(
            {"sql": QUERY1_SQL, "options": {"mode": "parallel", "fanouts": [5, 4]}}
        )
        started = time.perf_counter()
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=120
        )
        connection.request("POST", "/sql", body=body)
        payload = connection.getresponse().read().decode()
        connection.close()
        wall = time.perf_counter() - started
        lines = payload.strip().split("\n")
        trailer = json.loads(lines[-1])
        assert trailer["rows"] == len(lines) - 2
        return wall, trailer["rows"]

    try:
        cold_wall, rows = one_request()
        warm_walls = [one_request()[0] for _ in range(4)]
        batch_start = time.perf_counter()
        for _ in range(4):
            one_request()
        batch_wall = time.perf_counter() - batch_start
    finally:
        server.stop()
        thread.join(10)
        engine.close()
        kernel.shutdown()
    return {
        "cold_request_s": cold_wall,
        "warm_request_s": min(warm_walls),
        "rows_per_request": rows,
        "sequential_requests_per_s": 4 / batch_wall,
    }


def run(smoke: bool = False) -> dict:
    if smoke:
        HashProvider.work_seconds = 0.005
        HashProvider.iterations = 2_000
    counts = (1, 2) if smoke else WORKER_COUNTS
    wsmed = build_wsmed()
    rows = [measure_asyncio(wsmed)]
    rows.extend(measure_process(wsmed, workers) for workers in counts)

    baseline = rows[0]
    for row in rows[1:]:
        assert row["bag"] == baseline["bag"], (
            f"{row['kernel']} x{row['workers']} rows differ from baseline"
        )
    bags_match = True
    for row in rows:
        row.pop("bag")
        row["speedup_vs_asyncio"] = baseline["wall_s"] / row["wall_s"]

    return {
        "workload": {
            "sql": "GetAllStates -> HashState (50 synchronous calls)",
            "work_seconds_per_call": HashProvider.work_seconds,
            "pbkdf2_iterations": HashProvider.iterations,
            "fanout": FANOUT,
            "time_scale": TIME_SCALE,
            "local_services": True,
            "calls_note": "with local_services=True workers execute "
            "HashState in-process, so the coordinator's call recorder "
            "only sees the central GetAllStates call",
        },
        "rows_identical_across_kernels": bags_match,
        "kernels": rows,
        "http_front_end": measure_http(),
    }


def _report(payload: dict) -> None:
    for row in payload["kernels"]:
        label = (
            f"{row['kernel']} x{row['workers']} workers"
            if row["workers"]
            else f"{row['kernel']} (single process)"
        )
        print(
            f"{label:>28}: {row['wall_s']:6.2f} s wall "
            f"({row['rows']} rows, {row['calls']} calls, "
            f"{row['speedup_vs_asyncio']:.2f}x)"
        )
    http_row = payload["http_front_end"]
    print(
        f"http front end: cold {http_row['cold_request_s']:.2f} s, "
        f"warm {http_row['warm_request_s']:.2f} s, "
        f"{http_row['sequential_requests_per_s']:.1f} requests/s "
        f"({http_row['rows_per_request']} rows each)"
    )


def _emit_json(payload: dict) -> None:
    from benchmarks.report import save_bench_json

    save_bench_json("mp_scaling", payload)


def _check(payload: dict, smoke: bool) -> None:
    assert payload["rows_identical_across_kernels"]
    assert payload["http_front_end"]["rows_per_request"] == 360
    if smoke:
        return
    at_four = next(
        row for row in payload["kernels"] if row["workers"] == 4
    )
    assert at_four["speedup_vs_asyncio"] >= 2.0, at_four


def test_mp_scaling_smoke(benchmark) -> None:
    payload = benchmark.pedantic(run, kwargs={"smoke": True}, rounds=1, iterations=1)
    _report(payload)
    _emit_json(payload)
    _check(payload, smoke=True)


def main(smoke: bool = False) -> None:
    payload = run(smoke=smoke)
    _report(payload)
    _emit_json(payload)
    _check(payload, smoke=smoke)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller work units and fewer worker counts (CI)",
    )
    main(smoke=parser.parse_args().smoke)
