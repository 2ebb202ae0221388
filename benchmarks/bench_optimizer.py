"""Cost-based optimizer: adversarial orderings, rewrites, drift recovery.

Three sections, all deterministic model seconds over the synthetic
optimizer world of :mod:`benchmarks.optimizer_world`:

* **adversarial** — ``ADVERSARIAL_SQL`` names the expensive audit before
  the selective probe.  The heuristic (query-order) plan audits all 12
  regions; the cost plan probes first and audits only the 3 active ones.
  The JSON carries both plans' model seconds and call counts and asserts
  the cost plan wins on identical row bags.

* **rewrite** — ``REWRITE_SQL`` binds only the output side of ``NameOf``,
  so the heuristic pipeline rejects it with ``BindingError``.  The cost
  path rewrites the call to the declared ``CodeOf`` access path and the
  query executes; rows are checked against the hand-rewritten direct
  query and the ground truth.

* **drift** — the misdeclared world lies about ``CheckRegion``'s fanout
  (hint 6.0, true 0.25), so the *cold* cost plan audits first.  A
  resident engine runs the query twice: live call statistics expose the
  drift after the first execution, the plan cache entry is re-optimized,
  and the warm run matches the well-declared plan's call count.

Usage::

    python -m benchmarks.bench_optimizer [--smoke]
"""

from __future__ import annotations

import argparse

from benchmarks.optimizer_world import (
    ADVERSARIAL_SQL,
    REWRITE_DIRECT_SQL,
    REWRITE_SQL,
    build_optimizer_world,
    expected_adversarial_rows,
    expected_rewrite_rows,
)
from repro import QueryEngine, QueryOptions
from repro.util.errors import BindingError

COST = QueryOptions(optimize="cost")

DRIFT_RUNS = 4
SMOKE_DRIFT_RUNS = 2


def _row_bag(result) -> list[tuple]:
    return sorted(tuple(row) for row in result.rows)


def measure_adversarial() -> dict:
    """Heuristic (query-order) vs cost-chosen ordering, same row bag."""
    wsmed = build_optimizer_world()
    heuristic = wsmed.sql(ADVERSARIAL_SQL)
    cost = wsmed.sql(ADVERSARIAL_SQL, options=COST)
    return {
        "heuristic_model_s": heuristic.elapsed,
        "heuristic_calls": heuristic.total_calls,
        "cost_model_s": cost.elapsed,
        "cost_calls": cost.total_calls,
        "speedup": heuristic.elapsed / cost.elapsed,
        "rows": len(cost.rows),
        "rows_identical": _row_bag(cost) == _row_bag(heuristic),
        "rows_correct": _row_bag(cost) == expected_adversarial_rows(),
    }


def measure_rewrite() -> dict:
    """A formerly-BindingError query executes via the access path."""
    wsmed = build_optimizer_world()
    try:
        wsmed.sql(REWRITE_SQL)
        heuristic_rejects = False
    except BindingError:
        heuristic_rejects = True
    rewritten = wsmed.sql(REWRITE_SQL, options=COST)
    direct = wsmed.sql(REWRITE_DIRECT_SQL)
    return {
        "heuristic_rejects": heuristic_rejects,
        "rewritten_model_s": rewritten.elapsed,
        "rewritten_calls": rewritten.total_calls,
        "direct_model_s": direct.elapsed,
        "rows": len(rewritten.rows),
        "rows_match_direct": _row_bag(rewritten) == _row_bag(direct),
        "rows_correct": _row_bag(rewritten) == expected_rewrite_rows(),
    }


def measure_drift(runs: int) -> dict:
    """Cold (misdeclared) vs warmed (re-optimized) plan in the engine."""
    engine = QueryEngine(build_optimizer_world(misdeclared=True))
    try:
        results = [
            engine.sql(ADVERSARIAL_SQL, options=COST)
            for _ in range(runs)
        ]
        stats = engine.stats()
    finally:
        engine.close()
    cold, warm = results[0], results[-1]
    bags = {tuple(_row_bag(result)) for result in results}
    return {
        "runs": runs,
        "cold_model_s": cold.elapsed,
        "cold_calls": cold.total_calls,
        "warm_model_s": warm.elapsed,
        "warm_calls": warm.total_calls,
        "recovery_speedup": cold.elapsed / warm.elapsed,
        "reoptimizations": stats.reoptimizations,
        "observed_operations": stats.observed_operations,
        "rows_stable": len(bags) == 1,
        "rows_correct": _row_bag(warm) == expected_adversarial_rows(),
    }


def run(smoke: bool = False) -> dict:
    return {
        "workload": {
            "world": "benchmarks.optimizer_world",
            "profile": "fast",
            "mode": "central",
            "regions": 12,
            "active_regions": 3,
            "findings_per_region": 6,
        },
        "adversarial": measure_adversarial(),
        "rewrite": measure_rewrite(),
        "drift": measure_drift(SMOKE_DRIFT_RUNS if smoke else DRIFT_RUNS),
    }


def _report(payload: dict) -> None:
    adversarial = payload["adversarial"]
    print(
        f"adversarial ordering: heuristic "
        f"{adversarial['heuristic_model_s']:.2f} model s "
        f"({adversarial['heuristic_calls']} calls), cost "
        f"{adversarial['cost_model_s']:.2f} model s "
        f"({adversarial['cost_calls']} calls) -> "
        f"{adversarial['speedup']:.2f}x, rows identical: "
        f"{adversarial['rows_identical']}"
    )
    rewrite = payload["rewrite"]
    print(
        f"rewrite: heuristic rejects: {rewrite['heuristic_rejects']}, "
        f"cost path runs {rewrite['rows']} rows in "
        f"{rewrite['rewritten_model_s']:.2f} model s, matches direct "
        f"query: {rewrite['rows_match_direct']}"
    )
    drift = payload["drift"]
    print(
        f"drift recovery: cold {drift['cold_model_s']:.2f} model s "
        f"({drift['cold_calls']} calls) -> warm "
        f"{drift['warm_model_s']:.2f} model s ({drift['warm_calls']} "
        f"calls), {drift['reoptimizations']} re-optimizations over "
        f"{drift['runs']} runs ({drift['recovery_speedup']:.2f}x)"
    )


def _emit_json(payload: dict) -> None:
    from benchmarks.report import save_bench_json

    save_bench_json("optimizer", payload)


def _check(payload: dict) -> None:
    adversarial = payload["adversarial"]
    # The headline claim: on the adversarial ordering the cost plan
    # beats the heuristic plan in both calls and model time, without
    # changing the answer.
    assert adversarial["cost_model_s"] < adversarial["heuristic_model_s"], (
        adversarial
    )
    assert adversarial["cost_calls"] < adversarial["heuristic_calls"], (
        adversarial
    )
    assert adversarial["rows_identical"], adversarial
    assert adversarial["rows_correct"], adversarial
    rewrite = payload["rewrite"]
    assert rewrite["heuristic_rejects"], rewrite
    assert rewrite["rows_match_direct"], rewrite
    assert rewrite["rows_correct"], rewrite
    drift = payload["drift"]
    assert drift["reoptimizations"] >= 1, drift
    assert drift["warm_calls"] < drift["cold_calls"], drift
    assert drift["warm_model_s"] < drift["cold_model_s"], drift
    assert drift["rows_stable"], drift
    assert drift["rows_correct"], drift


def test_optimizer(benchmark) -> None:
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
        help="fewer drift runs (CI: verifies the claims, minimal runtime)",
    )
    main(smoke=parser.parse_args().smoke)
