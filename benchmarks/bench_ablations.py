"""Ablations of the design choices DESIGN.md calls out.

1. **Contention creates the interior optimum.**  With the ``uncontended``
   profile (unlimited server capacity, no load degradation) the best tree
   is simply one of the largest in the grid — confirming that server-side
   contention, not the operator itself, is what makes the paper's optimum
   interior and near-balanced.
2. **First-finished vs round-robin dispatch.**  ``FF_APPLYP`` ships the
   next parameter tuple to whichever child finished first.  The
   round-robin baseline deals tuples out in fixed rotation, so a child
   stuck behind a slow call accumulates a queue; first-finished must be
   at least as fast.
3. **Streaming vs materialized levels (WSQ/DSQ).**  The paper contrasts
   WSMED's "non-blocking multi-level parallel plans ... without any
   materialization" with WSQ/DSQ's asynchronous *materialized* dependent
   joins (Sec. VI).  The level-synchronous baseline runs each dependency
   level with the same parallelism but a global barrier between levels.
"""

from repro import ProcessCosts, QueryOptions, WSMED
from repro.algebra.interpreter import ExecutionContext
from repro.parallel.baseline import run_level_synchronous
from repro.runtime.simulated import SimKernel

from benchmarks.harness import (
    QUERY1_SQL,
    QUERY2_SQL,
    fanout_grid,
    format_grid,
    run_parallel,
    wsmed,
)


def _uncontended_grid():
    return fanout_grid(QUERY1_SQL, profile="uncontended", max_fanout=6)


def test_contention_creates_interior_optimum(benchmark) -> None:
    cells = benchmark.pedantic(_uncontended_grid, rounds=1, iterations=1)
    print()
    print(format_grid(cells, "Ablation — Query1 grid without contention"))
    best = min(cells, key=cells.get)
    best_n = best[0] + best[0] * best[1]
    # Without contention, bigger is simply better: the optimum sits in the
    # top decile of tree sizes instead of at an interior cell.
    sizes = sorted({fo1 + fo1 * fo2 for fo1, fo2 in cells})
    assert best_n >= sizes[int(0.8 * (len(sizes) - 1))]
    # And the achievable speed-up is far beyond the contended 4.3x.
    assert cells[(1, 1)] / cells[best] > 6.0


def _dispatch_times():
    ff = WSMED(profile="paper", process_costs=ProcessCosts(dispatch="first_finished"))
    ff.import_all()
    rr = WSMED(profile="paper", process_costs=ProcessCosts(dispatch="round_robin"))
    rr.import_all()
    options = QueryOptions(mode="parallel", fanouts=[5, 4])
    return ff.sql(QUERY1_SQL, options=options), rr.sql(QUERY1_SQL, options=options)


def test_first_finished_beats_round_robin(benchmark) -> None:
    ff_result, rr_result = benchmark.pedantic(_dispatch_times, rounds=1, iterations=1)
    print()
    print(
        f"Ablation — dispatch policy at {{5,4}}: "
        f"first-finished {ff_result.elapsed:.1f} s, "
        f"round-robin {rr_result.elapsed:.1f} s"
    )
    assert ff_result.as_bag() == rr_result.as_bag()
    # Identical work, worse placement: round-robin can only be slower.
    assert rr_result.elapsed >= ff_result.elapsed * 0.999


def _ship_cost_sweep():
    times = {}
    for ship_param in (0.01, 0.2, 1.0):
        system = WSMED(
            profile="paper", process_costs=ProcessCosts(ship_param=ship_param)
        )
        system.import_all()
        times[ship_param] = system.sql(
            QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[5, 4])
        ).elapsed
    return times


def test_param_shipping_cost_matters(benchmark) -> None:
    times = benchmark.pedantic(_ship_cost_sweep, rounds=1, iterations=1)
    print()
    print("Ablation — per-parameter shipping cost at {5,4}:")
    for cost, elapsed in times.items():
        print(f"  ship_param={cost:<5} -> {elapsed:.1f} s")
    # Dispatch is serial at each parent, so shipping cost directly
    # stretches execution; 1 s per tuple adds >= ~50 s at the coordinator.
    assert times[1.0] > times[0.01] + 40


def _level_synchronous(sql: str, workers: list[int]) -> tuple[float, list[tuple]]:
    system = wsmed()
    plan = system.plan(sql)
    kernel = SimKernel()
    broker = system.registry.bind(kernel, seed=system.seed)
    ctx = ExecutionContext(kernel=kernel, broker=broker, functions=system.functions)
    rows = kernel.run(run_level_synchronous(plan, ctx, system.functions, workers))
    return kernel.now(), rows


def _streaming_vs_materialized():
    comparisons = {}
    for name, sql, workers, fanouts in (
        ("Query1", QUERY1_SQL, [5, 20], (5, 4)),
        ("Query2", QUERY2_SQL, [4, 12], (4, 3)),
    ):
        sync_time, sync_rows = _level_synchronous(sql, workers)
        streaming = run_parallel(sql, fanouts)
        comparisons[name] = {
            "materialized": sync_time,
            "streaming": streaming.elapsed,
            "rows_match": len(sync_rows) == len(streaming.rows),
        }
    return comparisons


def test_streaming_beats_materialized_levels(benchmark) -> None:
    comparisons = benchmark.pedantic(
        _streaming_vs_materialized, rounds=1, iterations=1
    )
    print()
    print("Ablation — streaming (WSMED) vs materialized levels (WSQ/DSQ style):")
    for name, row in comparisons.items():
        print(
            f"  {name}: materialized {row['materialized']:7.1f} s, "
            f"streaming {row['streaming']:7.1f} s "
            f"({row['materialized'] / row['streaming']:.2f}x)"
        )
    for row in comparisons.values():
        assert row["rows_match"]
        # Overlapping the levels in time is what the process tree buys:
        # the same per-level parallelism with barriers is clearly slower.
        assert row["materialized"] > 1.2 * row["streaming"]


def main() -> None:
    print(format_grid(_uncontended_grid(), "Query1 grid without contention"))
    ff_result, rr_result = _dispatch_times()
    print(f"first-finished: {ff_result.elapsed:.1f} s, round-robin: {rr_result.elapsed:.1f} s")
    for name, row in _streaming_vs_materialized().items():
        print(f"{name}: materialized {row['materialized']:.1f} s vs "
              f"streaming {row['streaming']:.1f} s")


if __name__ == "__main__":
    main()
