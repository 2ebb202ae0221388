"""Micro-batched messaging: batch size x fanout on a cheap-call workload.

The per-tuple protocol (Sec. III.A) pays ``message_latency`` three times
per call (parameter down, result up, end-of-call up) plus the per-row
shipping CPU — for wide fan-outs over cheap calls that messaging, not the
web services, dominates the client.  This bench runs exactly that regime:
``GetPlacesInside`` on the uncontended profile (no server queueing, so the
client side is the bottleneck) with elevated messaging costs, and sweeps
``ProcessCosts.batch_size`` against the fanout.  Measured claims:

* batching cuts uplink+downlink messages by well over 30% (a batch of k
  replaces ~3k messages with 2),
* completion time drops measurably versus the per-tuple protocol, and
* ``batch_adaptive`` lands within ~10% of the best fixed batch size
  without being told the right size.

Results are also written to ``BENCH_batching.json`` via
:func:`benchmarks.report.save_bench_json`.
"""

from __future__ import annotations

from dataclasses import replace

from repro import ProcessCosts, QueryOptions, WSMED
from repro.fdb.functions import helping_function
from repro.fdb.types import CHARSTRING, TupleType

SQL = """
Select gp.ToPlace, gp.ToState
From   zip_stream zs, GetPlacesInside gp
Where  gp.zip = zs.zip
"""

TUPLES = 240
FANOUTS = (8, 12)
BATCH_SIZES = (1, 2, 4, 8, 16)

# Messaging-heavy cost point: transit 20 ms per message, cheap per-row
# CPU.  One GetPlacesInside call occupies a child ~83 ms on the
# uncontended profile, so per-tuple messaging (~3 transits/call) is a
# large fraction of useful work — the regime batching is for.
COSTS = ProcessCosts(
    message_latency=0.02,
    ship_param=0.002,
    result_tuple=0.001,
)


def _system() -> WSMED:
    system = WSMED(profile="uncontended", process_costs=COSTS)
    system.import_all()
    zips = system.registry.geodata.zipcodes_of("Colorado")
    stream = [(code,) for code in (zips * 40)[:TUPLES]]
    system.register_helping_function(
        helping_function(
            "zip_stream",
            [],
            TupleType((("zip", CHARSTRING),)),
            lambda: list(stream),
            documentation=f"Parameter stream of {TUPLES} zip codes.",
        )
    )
    return system


def _run(system: WSMED, fanout: int, batch) -> dict:
    if batch == "adaptive":
        costs = replace(COSTS, batch_adaptive=True)
    else:
        costs = replace(COSTS, batch_size=batch)
    options = QueryOptions(mode="parallel", fanouts=[fanout], process_costs=costs)
    result = system.sql(SQL, options=options)
    stats = result.message_stats
    return {
        "batch": batch,
        "fanout": fanout,
        "elapsed": result.elapsed,
        "messages": stats.total_messages,
        "downlink": stats.downlink_messages,
        "uplink": stats.uplink_messages,
        "param_batches": stats.param_batches,
        "result_batches": stats.result_batches,
        "rows": len(result.rows),
        "bag": result.as_bag(),
    }


def _sweep() -> list[dict]:
    system = _system()
    runs = []
    for fanout in FANOUTS:
        for batch in (*BATCH_SIZES, "adaptive"):
            runs.append(_run(system, fanout, batch))
    return runs


def _report(runs: list[dict]) -> None:
    print()
    print(
        f"Micro-batching, {TUPLES} GetPlacesInside calls "
        "(uncontended profile, 20 ms message transit):"
    )
    for fanout in FANOUTS:
        rows = [run for run in runs if run["fanout"] == fanout]
        base = next(run for run in rows if run["batch"] == 1)
        print(f"  fanout {fanout}:")
        for run in rows:
            label = (
                "adaptive"
                if run["batch"] == "adaptive"
                else f"batch={run['batch']}"
            )
            speedup = base["elapsed"] / run["elapsed"]
            fewer = 1.0 - run["messages"] / base["messages"]
            print(
                f"    {label:9s}: {run['elapsed']:6.2f} s "
                f"({speedup:4.2f}x), {run['messages']:4d} messages "
                f"({fewer:5.1%} fewer)"
            )


def _emit_json(runs: list[dict]) -> None:
    from benchmarks.report import save_bench_json

    save_bench_json(
        "batching",
        {
            "workload": {
                "sql": "GetPlacesInside per zip (dependent join)",
                "tuples": TUPLES,
                "profile": "uncontended",
                "message_latency": COSTS.message_latency,
                "ship_param": COSTS.ship_param,
                "result_tuple": COSTS.result_tuple,
            },
            "runs": [
                {key: value for key, value in run.items() if key != "bag"}
                for run in runs
            ],
        },
    )


def test_batching_sweep(benchmark) -> None:
    runs = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    _report(runs)
    _emit_json(runs)

    # Batching never changes what the query computes.
    baseline = runs[0]["bag"]
    assert all(run["bag"] == baseline for run in runs)

    for fanout in FANOUTS:
        rows = [run for run in runs if run["fanout"] == fanout]
        base = next(run for run in rows if run["batch"] == 1)
        fixed = [run for run in rows if run["batch"] not in (1, "adaptive")]
        adaptive = next(run for run in rows if run["batch"] == "adaptive")

        # >= 30% fewer uplink+downlink messages at every batched size.
        for run in fixed:
            assert run["messages"] <= 0.7 * base["messages"], run
        assert adaptive["messages"] <= 0.7 * base["messages"]

        # A measurable completion-time win over the per-tuple protocol.
        best = min(fixed, key=lambda run: run["elapsed"])
        assert best["elapsed"] < 0.95 * base["elapsed"]

        # Adaptive sizing lands within ~10% of the best fixed size.
        assert adaptive["elapsed"] <= 1.10 * best["elapsed"]


def main() -> None:
    runs = _sweep()
    _report(runs)
    _emit_json(runs)


if __name__ == "__main__":
    main()
