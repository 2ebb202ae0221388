"""The upgraded explain output for ``optimize="cost"``.

The cost-based explain must show the chosen plan annotated with
per-operator cardinality/call estimates, the optimizer's search report,
the heuristic plan it beat (with both estimates and the ratio), and —
for rewritten queries — why the original binding pattern was unfittable.
"""

import pytest

from benchmarks.optimizer_world import (
    ADVERSARIAL_SQL,
    REWRITE_SQL,
    build_optimizer_world,
)
from repro import QueryOptions, WSMED, QUERY1_SQL

COST = QueryOptions(optimize="cost")


@pytest.fixture(scope="module")
def world():
    return build_optimizer_world()


def test_heuristic_explain_is_unchanged(world) -> None:
    # The default explain keeps the seed's exact section layout.
    text = world.explain(QUERY1_SQL)
    assert "-- calculus --" in text
    assert "-- plan --" in text
    assert "-- estimate --" in text
    assert "-- optimizer --" not in text
    assert "in≈" not in text


def test_cost_explain_annotates_operators(world) -> None:
    text = world.explain(ADVERSARIAL_SQL, options=COST)
    assert "-- cost-based plan --" in text
    assert "in≈" in text and "out≈" in text
    assert "calls≈" in text and "time≈" in text


def test_cost_explain_compares_against_heuristic(world) -> None:
    text = world.explain(ADVERSARIAL_SQL, options=COST)
    assert "-- optimizer --" in text
    assert "heuristic order:" in text
    assert "-- estimate (cost-based) --" in text
    assert "-- heuristic plan --" in text
    assert "-- estimate (heuristic) --" in text
    assert "cost-based vs heuristic:" in text
    assert "x estimated sequential time" in text


def test_cost_explain_beats_heuristic_on_adversarial_order(world) -> None:
    text = world.explain(ADVERSARIAL_SQL, options=COST)
    (ratio_line,) = [
        line for line in text.splitlines()
        if line.startswith("cost-based vs heuristic:")
    ]
    ratio = float(ratio_line.split(":")[1].split("x")[0])
    assert ratio < 1.0


def test_cost_explain_shows_rewrite_reason(world) -> None:
    text = world.explain(REWRITE_SQL, options=COST)
    assert "NameOf -> CodeOf" in text
    assert "binding pattern" in text
    assert "unbound: no_code" in text
    # The heuristic pipeline cannot plan this query at all; explain says
    # so instead of rendering a comparison plan.
    assert "(not plannable without rewrites:" in text


def _first_sequential_time(text: str) -> float:
    for line in text.splitlines():
        if line.startswith("sequential time:"):
            return float(line.split("~")[1].split(" ")[0])
    raise AssertionError("no sequential time line in explain output")


def test_cost_explain_reflects_observed_overlay(world) -> None:
    base = world.explain(ADVERSARIAL_SQL, options=COST)
    overlaid = world.explain(
        ADVERSARIAL_SQL,
        options=COST.replace(observed={"CheckRegion": (30.0, 6.0)}),
    )
    # Claiming the probe costs 30 s/call inflates the cost-based
    # estimate; the explain output must be derived from the overlay.
    assert _first_sequential_time(overlaid) > _first_sequential_time(base)


def test_default_wsmed_explain_unaffected() -> None:
    # A stock paper-profile WSMED (no synthetic services) still explains
    # Query1 identically through both entry points' default path.
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    assert wsmed.explain(QUERY1_SQL) == wsmed.explain(
        QUERY1_SQL, options=QueryOptions(optimize="heuristic")
    )
