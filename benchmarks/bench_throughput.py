"""Resident-engine throughput: cold vs warm latency, concurrent clients.

The one-shot ``WSMED.sql`` path pays compilation, child-process spawning
and an empty call cache on every query.  The resident
:class:`~repro.engine.QueryEngine` amortizes all three, which matters for
the workload a mediator actually serves: the *same* parameterized queries
arriving over and over (dashboard refreshes, polling clients).

Measured claims, all in deterministic model seconds on the ``fast``
profile (Query1, ``parallel`` mode with the paper's best {5,4} tree,
call cache on, cache-affinity dispatch):

* a warm query — compiled plan cached, process tree resident, child
  caches populated — runs >= 5x faster than the cold first query;
* 16 concurrent clients on one engine achieve >= 3x the queries/second
  of a single client, because warm all-hit queries never contend on the
  capacity-limited simulated services.

``prefetch=16`` keeps cache-affinity routing strict (the affinity target
never saturates, so no first-finished fallback), which makes warm-tree
hit rates — and therefore this bench — fully deterministic.

The warm steady state above is fully cached (``broker_calls: 0``), so it
says nothing about broker work.  The *cold workloads* section measures
that side: fresh engines, no warm-up, identical and partially
overlapping client batches — every row there issues real broker calls.
The full clients x overlap x sharing grid lives in
:mod:`benchmarks.bench_multiquery`.

Usage::

    python -m benchmarks.bench_throughput [--smoke]
"""

from __future__ import annotations

import argparse
import time

from repro import QUERY1_SQL, CacheConfig, ProcessCosts, QueryEngine, QueryOptions, WSMED

PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])
COSTS = ProcessCosts(dispatch="hash_affinity", prefetch=16).scaled(0.01)
CLIENT_COUNTS = (1, 4, 16)
COLD_WORKLOADS = ("overlapping", "partial")
COLD_CLIENTS = 4
WARM_ROUNDS = 2  # per-client warm-up batches before measuring


def _engine(max_concurrency: int = 16) -> QueryEngine:
    wsmed = WSMED(
        profile="fast", process_costs=COSTS, cache=CacheConfig(enabled=True)
    )
    wsmed.import_all()
    return QueryEngine(wsmed, max_concurrency=max_concurrency)


def measure_latency() -> dict:
    """Cold first query vs fully warm repeat on one engine."""
    engine = _engine()
    wall_start = time.perf_counter()
    cold = engine.sql(QUERY1_SQL, options=PARALLEL)
    cold_wall = time.perf_counter() - wall_start

    # One warm-up round populates the child caches; the next repeat is
    # the steady state a resident engine serves.
    engine.sql(QUERY1_SQL, options=PARALLEL)
    wall_start = time.perf_counter()
    warm = engine.sql(QUERY1_SQL, options=PARALLEL)
    warm_wall = time.perf_counter() - wall_start
    stats = engine.stats()
    engine.close()

    assert warm.rows and sorted(warm.rows) == sorted(cold.rows)
    return {
        "cold_model_s": cold.elapsed,
        "warm_model_s": warm.elapsed,
        "speedup": cold.elapsed / warm.elapsed,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "cold_calls": cold.total_calls,
        "warm_calls": warm.total_calls,
        "warm_cache_hits": warm.cache_stats.hits,
        "plan_cache_hits": stats.plan_cache_hits,
        "warm_leases": stats.warm_leases,
    }


def measure_throughput(clients: int) -> dict:
    """Steady-state queries/second with ``clients`` concurrent clients.

    Warm-up rounds first build ``clients`` resident trees (each concurrent
    query leases its own) and populate their caches; the measured batch is
    then pure steady state.
    """
    engine = _engine(max_concurrency=max(CLIENT_COUNTS))
    batch = [QUERY1_SQL] * clients
    for _ in range(WARM_ROUNDS):
        engine.sql_many(batch, options=PARALLEL)
    kernel = engine.kernel
    started = kernel.now()
    wall_start = time.perf_counter()
    results = engine.sql_many(batch, options=PARALLEL)
    wall = time.perf_counter() - wall_start
    makespan = kernel.now() - started
    stats = engine.stats()
    engine.close()

    assert len(results) == clients and all(r.rows for r in results)
    return {
        "clients": clients,
        "makespan_model_s": makespan,
        "queries_per_model_s": clients / makespan,
        "wall_s": wall,
        "broker_calls": sum(r.total_calls for r in results),
        "peak_concurrency": stats.peak_concurrency,
        "resident_trees": stats.idle_pools,
    }


def measure_cold_workload(workload: str, clients: int) -> dict:
    """Broker work of ``clients`` concurrent *cold* queries.

    No warm-up rounds and a fresh engine, so unlike the steady-state
    rows above every query here pays real broker round trips —
    ``broker_calls`` must come out positive.  ``workload`` picks the
    overlap shape (see :func:`benchmarks.bench_multiquery.workload_batch`).
    """
    from benchmarks.bench_multiquery import workload_batch

    engine = _engine(max_concurrency=max(CLIENT_COUNTS))
    batch = workload_batch(workload, clients)
    kernel = engine.kernel
    started = kernel.now()
    results = engine.sql_many(batch, options=PARALLEL)
    makespan = kernel.now() - started
    broker_calls = engine.broker.total_calls()
    engine.close()

    assert len(results) == clients and all(r.rows for r in results)
    return {
        "workload": workload,
        "clients": clients,
        "makespan_model_s": makespan,
        "broker_calls": broker_calls,
        "calls_per_query": broker_calls / clients,
    }


def run(smoke: bool = False) -> dict:
    latency = measure_latency()
    counts = CLIENT_COUNTS[:2] + CLIENT_COUNTS[-1:] if not smoke else (1, 16)
    throughput = [measure_throughput(clients) for clients in counts]
    cold = [
        measure_cold_workload(workload, COLD_CLIENTS)
        for workload in COLD_WORKLOADS
    ]
    single = throughput[0]["queries_per_model_s"]
    scaling = {
        str(row["clients"]): row["queries_per_model_s"] / single
        for row in throughput
    }
    return {
        "workload": {
            "sql": "Query1",
            "profile": "fast",
            "mode": "parallel",
            "fanouts": [5, 4],
            "dispatch": "hash_affinity",
            "prefetch": 16,
            "cache": True,
        },
        "latency": latency,
        "throughput": throughput,
        "throughput_scaling_vs_1_client": scaling,
        "cold_workloads": cold,
    }


def _report(payload: dict) -> None:
    latency = payload["latency"]
    print(
        f"latency: cold {latency['cold_model_s']:.4f} model s "
        f"({latency['cold_calls']} calls), warm {latency['warm_model_s']:.4f} "
        f"model s ({latency['warm_calls']} calls) -> "
        f"{latency['speedup']:.1f}x"
    )
    for row in payload["throughput"]:
        print(
            f"{row['clients']:>3} clients: {row['queries_per_model_s']:8.1f} q/s "
            f"(makespan {row['makespan_model_s']:.4f} model s, "
            f"{row['broker_calls']} broker calls, "
            f"peak concurrency {row['peak_concurrency']})"
        )
    scaling = payload["throughput_scaling_vs_1_client"]
    last = payload["throughput"][-1]["clients"]
    print(f"scaling at {last} clients: {scaling[str(last)]:.1f}x one client")
    for row in payload["cold_workloads"]:
        print(
            f"cold {row['workload']:>11} x{row['clients']} clients: "
            f"{row['broker_calls']} broker calls "
            f"({row['calls_per_query']:.0f}/query, "
            f"makespan {row['makespan_model_s']:.4f} model s)"
        )


def _emit_json(payload: dict) -> None:
    from benchmarks.report import save_bench_json

    save_bench_json("throughput", payload)


def _check(payload: dict) -> None:
    assert payload["latency"]["speedup"] >= 5.0, payload["latency"]
    scaling = payload["throughput_scaling_vs_1_client"]
    assert scaling[str(payload["throughput"][-1]["clients"])] >= 3.0, scaling
    for row in payload["cold_workloads"]:
        # The cold rows exist to measure broker work; all-zero calls
        # would mean this bench regressed into replaying caches again.
        assert row["broker_calls"] >= row["clients"], row


def test_resident_engine_throughput(benchmark) -> None:
    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    _report(payload)
    _emit_json(payload)
    _check(payload)


def main(smoke: bool = False) -> None:
    payload = run(smoke=smoke)
    _report(payload)
    _emit_json(payload)
    _check(payload)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer client counts (CI: verifies the ratios, minimal runtime)",
    )
    main(smoke=parser.parse_args().smoke)
