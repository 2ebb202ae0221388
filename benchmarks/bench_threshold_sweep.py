"""AFF_APPLYP sensitivity to the change threshold.

Sec. V.A: "We experimented with different values of p and different
change thresholds, with and without the drop stage.  The results for 25 %
change are shown in Fig 21."  This bench regenerates the threshold
dimension: Query1 with p=2, no drop stage, across thresholds.

Expected shape: a small threshold keeps adding children aggressively
(larger trees, adaptation overhead), a large threshold stops early
(undersized trees); the paper's 25 % sits in the efficient middle.
"""

from repro import AdaptationParams, QueryOptions

from benchmarks.harness import PAPER, QUERY1_SQL, run_parallel, wsmed

THRESHOLDS = (0.05, 0.15, 0.25, 0.40, 0.60)


def _sweep():
    rows = []
    for threshold in THRESHOLDS:
        adaptation = AdaptationParams(p=2, threshold=threshold, drop_stage=False)
        result = wsmed().sql(
            QUERY1_SQL, options=QueryOptions(mode="adaptive", adaptation=adaptation)
        )
        rows.append(
            {
                "threshold": threshold,
                "time": result.elapsed,
                "spawned": result.tree.processes_spawned,
                "fanouts": [round(f, 1) for f in result.tree.average_fanouts()],
            }
        )
    return rows


def test_threshold_sweep(benchmark) -> None:
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    best_manual = run_parallel(QUERY1_SQL, PAPER["query1_best_fanouts"]).elapsed
    print()
    print(f"Threshold sweep — Query1, p=2, no drop (best manual {best_manual:.1f} s)")
    for row in rows:
        print(
            f"  threshold={row['threshold']:<5} time={row['time']:7.1f} s  "
            f"spawned={row['spawned']:>3}  avg fanouts={row['fanouts']}"
        )

    by_threshold = {row["threshold"]: row for row in rows}
    # Lower thresholds keep expanding longer: tree sizes decrease (weakly)
    # as the threshold grows.
    spawned = [row["spawned"] for row in rows]
    assert all(a >= b for a, b in zip(spawned, spawned[1:]))
    # The paper's 25% choice stays within a reasonable factor of the best
    # manual tree.
    assert by_threshold[0.25]["time"] < 1.5 * best_manual
    # Every threshold still produces a correct, finished run far faster
    # than the central plan.
    assert all(row["time"] < 150.0 for row in rows)


def main() -> None:
    for row in _sweep():
        print(row)


if __name__ == "__main__":
    main()
