"""Multi-query sharing: broker-call growth across a clients x overlap grid.

A resident engine serving many concurrent clients sees three kinds of
workload.  *Overlapping* clients all run the same query (dashboard
refreshes); *partially overlapping* clients run variants that share a
subplan (here: Query1 at 15 km vs 20 km — level-1 ``GetPlacesWithin``
calls differ, the big level-2 ``GetPlaceList`` fan-out is identical
because every Atlanta cluster sits well inside both radii); *disjoint*
clients run unrelated queries (one town per client).

With sharing off, broker calls grow linearly with clients on every
workload.  With ``ShareConfig(enabled=True)`` the shared call cache and
cross-query single-flight collapse the overlapping workload to
(approximately) the 1-client call count no matter how many clients pile
on, halve-or-better the partial workload, and leave the disjoint
workload untouched — that last one is the no-regression guard.

All measurements are *cold*: a fresh engine per cell, no warm-up rounds,
so ``broker_calls`` measures real broker work rather than a replay from
warm per-process caches (the blind spot ``bench_throughput`` had).

Usage::

    python -m benchmarks.bench_multiquery [--smoke]
"""

from __future__ import annotations

import argparse

from repro import (
    QUERY1_SQL,
    CacheConfig,
    ProcessCosts,
    QueryEngine,
    QueryOptions,
    ShareConfig,
    WSMED,
)

PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])
COSTS = ProcessCosts(dispatch="hash_affinity", prefetch=16).scaled(0.01)
CLIENT_COUNTS = (1, 4, 8, 16)
SMOKE_CLIENT_COUNTS = (1, 8)
WORKLOADS = ("overlapping", "partial", "disjoint")
SMOKE_WORKLOADS = ("overlapping", "disjoint")

#: Allowed overshoot over the 1-client call count for fully-overlapping
#: clients under sharing.  Concurrent queries can race past the shared
#: memo before the first leader stores its result; each race costs at
#: most one duplicate round trip.
DEDUP_EPSILON = 16

# One anchor town per disjoint client.  Every stem exists as a City in
# each of the 50 simulated states, and a town is always within 0 km of
# itself, so each variant traverses all three query levels and returns
# rows — no degenerate empty queries.
TOWNS = (
    "Springfield", "Fairview", "Riverside", "Franklin", "Greenville",
    "Bristol", "Clinton", "Salem", "Georgetown", "Madison", "Arlington",
    "Ashland", "Dover", "Hudson", "Kingston", "Milton",
)


def query1_variant(place: str = "Atlanta", distance: float = 15.0) -> str:
    """Query1 with a different anchor place and/or search radius."""
    return f"""
Select gl.placename, gl.state
From   GetAllStates gs, GetPlacesWithin gp, GetPlaceList gl
Where  gs.State = gp.state and gp.distance = {distance}
  and  gp.placeTypeToFind = 'City' and gp.place = '{place}'
  and  gl.placeName = gp.ToCity + ', ' + gp.ToState
  and  gl.MaxItems = 100 and gl.imagePresence = 'true'
"""


def workload_batch(name: str, clients: int) -> list[str]:
    if name == "overlapping":
        return [QUERY1_SQL] * clients
    if name == "partial":
        return [
            query1_variant(distance=15.0 if i % 2 == 0 else 20.0)
            for i in range(clients)
        ]
    if name == "disjoint":
        return [query1_variant(place=TOWNS[i % len(TOWNS)]) for i in range(clients)]
    raise ValueError(f"unknown workload {name!r}")


def measure(workload: str, clients: int, sharing: bool) -> dict:
    """One cold cell: ``clients`` concurrent queries on a fresh engine."""
    wsmed = WSMED(
        profile="fast", process_costs=COSTS, cache=CacheConfig(enabled=True)
    )
    wsmed.import_all()
    engine = QueryEngine(
        wsmed,
        max_concurrency=max(CLIENT_COUNTS),
        share=ShareConfig(enabled=True) if sharing else None,
    )
    batch = workload_batch(workload, clients)
    started = engine.kernel.now()
    results = engine.sql_many(batch, options=PARALLEL)
    makespan = engine.kernel.now() - started
    broker_calls = engine.broker.total_calls()
    stats = engine.stats()
    engine.close()

    assert len(results) == clients and all(r.rows for r in results)
    assert broker_calls == sum(r.total_calls for r in results)
    return {
        "workload": workload,
        "clients": clients,
        "sharing": sharing,
        "broker_calls": broker_calls,
        "makespan_model_s": makespan,
        "rows": sum(len(r.rows) for r in results),
        "shared_cache_hits": stats.shared_cache_hits,
        "shared_cache_waits": stats.shared_cache_waits,
        "coalesced_batches": stats.coalesced_batches,
        "batched_calls": stats.batched_calls,
        "pool_lease_waits": stats.pool_lease_waits,
        "shared_pool_leases": stats.shared_pool_leases,
    }


def run(smoke: bool = False) -> dict:
    counts = SMOKE_CLIENT_COUNTS if smoke else CLIENT_COUNTS
    workloads = SMOKE_WORKLOADS if smoke else WORKLOADS
    cells = [
        measure(workload, clients, sharing)
        for workload in workloads
        for clients in counts
        for sharing in (False, True)
    ]
    growth = {}
    for workload in workloads:
        base = _cell(cells, workload, counts[0], sharing=True)["broker_calls"]
        growth[workload] = {
            str(clients): _cell(cells, workload, clients, sharing=True)[
                "broker_calls"
            ]
            / base
            for clients in counts
        }
    return {
        "workload": {
            "sql": "Query1 (+ place/distance variants)",
            "profile": "fast",
            "mode": "parallel",
            "fanouts": [5, 4],
            "dispatch": "hash_affinity",
            "prefetch": 16,
            "cache": True,
            "cold": True,
        },
        "client_counts": list(counts),
        "cells": cells,
        "call_growth_vs_1_client_sharing_on": growth,
    }


def _cell(cells: list[dict], workload: str, clients: int, sharing: bool) -> dict:
    for cell in cells:
        if (
            cell["workload"] == workload
            and cell["clients"] == clients
            and cell["sharing"] == sharing
        ):
            return cell
    raise KeyError((workload, clients, sharing))


def _report(payload: dict) -> None:
    for cell in payload["cells"]:
        tier = (
            f"shared {cell['shared_cache_hits']} hits"
            f" + {cell['shared_cache_waits']} waits, "
            f"{cell['batched_calls']} calls in "
            f"{cell['coalesced_batches']} batches, "
            f"{cell['shared_pool_leases']} shared leases"
            if cell["sharing"]
            else "sharing off"
        )
        print(
            f"{cell['workload']:>11} x{cell['clients']:>2} clients: "
            f"{cell['broker_calls']:>5} broker calls "
            f"(makespan {cell['makespan_model_s']:.4f} model s, {tier})"
        )
    for workload, ratios in payload["call_growth_vs_1_client_sharing_on"].items():
        shape = ", ".join(f"{n} clients {r:.2f}x" for n, r in ratios.items())
        print(f"call growth ({workload}, sharing on): {shape}")


def _emit_json(payload: dict) -> None:
    from benchmarks.report import save_bench_json

    save_bench_json("multiquery", payload)


def _check(payload: dict) -> None:
    cells = payload["cells"]
    counts = payload["client_counts"]
    most = counts[-1]

    # Fully-overlapping clients dedup to (roughly) one client's calls:
    # sub-linear by a wide margin, and the paper-of-record criterion at
    # 16 clients is <= 2x the 1-client count.
    one = _cell(cells, "overlapping", 1, sharing=True)["broker_calls"]
    many = _cell(cells, "overlapping", most, sharing=True)["broker_calls"]
    assert many <= 2 * one, (one, many)
    # CI smoke guard: no more than 1 client's calls + dedup-race epsilon.
    if most <= 8:
        assert many <= one + DEDUP_EPSILON, (one, many)

    # Sharing must never add broker work on disjoint queries.
    for clients in counts:
        off = _cell(cells, "disjoint", clients, sharing=False)["broker_calls"]
        on = _cell(cells, "disjoint", clients, sharing=True)["broker_calls"]
        assert on <= off, (clients, off, on)

    if "partial" in payload["call_growth_vs_1_client_sharing_on"]:
        off = _cell(cells, "partial", most, sharing=False)["broker_calls"]
        on = _cell(cells, "partial", most, sharing=True)["broker_calls"]
        assert on < off, (off, on)


def test_multiquery_sharing(benchmark) -> None:
    payload = benchmark.pedantic(run, kwargs=dict(smoke=True), rounds=1, iterations=1)
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
        help="fewer cells (CI: verifies the dedup guarantees, minimal runtime)",
    )
    main(smoke=parser.parse_args().smoke)
