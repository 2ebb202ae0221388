"""Pipelined dispatch depth (prefetch) ablation.

The paper's FF_APPLYP ships the next parameter tuple only after an
end-of-call (depth 1).  Allowing a child several outstanding tuples hides
the parent's shipping latency but commits tuples to children earlier,
losing first-finished placement quality.  With the calibrated profile the
message costs are small relative to the service times, so depth 1 is
(mildly) best — consistent with the paper's protocol choice.
"""

from repro import ProcessCosts, QueryOptions, WSMED

from benchmarks.harness import PAPER, QUERY1_SQL

DEPTHS = (1, 2, 4, 8)


def _sweep():
    times = {}
    options = QueryOptions(mode="parallel", fanouts=list(PAPER["query1_best_fanouts"]))
    for depth in DEPTHS:
        system = WSMED(profile="paper", process_costs=ProcessCosts(prefetch=depth))
        system.import_all()
        result = system.sql(QUERY1_SQL, options=options)
        times[depth] = (result.elapsed, len(result))
    return times


def test_prefetch_depth(benchmark) -> None:
    times = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print()
    print("Ablation — dispatch pipelining depth at {5,4} (Query1):")
    for depth, (elapsed, rows) in times.items():
        print(f"  prefetch={depth}: {elapsed:7.1f} s ({rows} rows)")

    assert all(rows == 360 for _, rows in times.values())
    base = times[1][0]
    # Depth 1 (the paper's protocol) is within a few percent of the best
    # depth, and deep pipelines never help much at these message costs.
    best = min(elapsed for elapsed, _ in times.values())
    assert base <= best * 1.05
    assert max(elapsed for elapsed, _ in times.values()) < base * 1.25


def main() -> None:
    for depth, (elapsed, rows) in _sweep().items():
        print(f"prefetch={depth}: {elapsed:.1f} s")


if __name__ == "__main__":
    main()
