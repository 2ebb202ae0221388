"""Unit tests for the cost-based plan optimizer.

Covers the subset-DP chain ordering (adversarial orders get fixed, seed
orders stay put, the search is deterministic), the greedy fallback for
components past ``dp_limit``, the bushy join DP (including the repair of
queries the heuristic's query-order left-deep walk rejects), and the
optimizer report explain consumes.
"""

import pytest

from benchmarks.optimizer_world import (
    ADVERSARIAL_SQL,
    build_optimizer_world,
    expected_adversarial_rows,
)
from repro.algebra.cost import CostModel, model_from_observations
from repro.algebra.explain import render_plan
from repro.algebra.optimizer import OptimizerConfig, create_cost_based_plan
from repro.calculus.generator import generate_calculus
from repro.sql.parser import parse_query
from repro.util.errors import BindingError
from repro.wsmed.options import QueryOptions

from tests.helpers import QUERY1_SQL

COST = QueryOptions(optimize="cost")

DISCONNECTED_SQL = """
SELECT ra.region
FROM   ListRegions ra, ListRegions rb, ListRegions rc
WHERE  ra.region = rc.region AND rb.region = rc.region
"""


@pytest.fixture(scope="module")
def world():
    return build_optimizer_world()


def _cost_plan(wsmed, sql, config=None):
    calculus = generate_calculus(
        parse_query(sql), wsmed.functions, "Query", allow_unbound=True
    )
    return create_cost_based_plan(
        calculus, wsmed.functions, wsmed.cost_model(), config
    )


def test_dp_reorders_adversarial_chain(world) -> None:
    _plan, report = _cost_plan(world, ADVERSARIAL_SQL)
    (choice,) = report.components
    assert choice.strategy == "dp"
    order = [name.split(":")[1] for name in choice.functions]
    # Selective probe before the expensive audit, despite query order.
    assert order.index("CheckRegion") < order.index("AuditRegion")
    heuristic = [name.split(":")[1] for name in choice.heuristic_functions]
    assert heuristic.index("AuditRegion") < heuristic.index("CheckRegion")
    assert choice.estimated_cost < choice.heuristic_cost


def test_dp_keeps_seed_order_on_ties(world) -> None:
    # Query1's dependency chain has exactly one sensible order; the DP
    # must reproduce the heuristic's (and therefore the paper's) chain.
    _plan, report = _cost_plan(world, QUERY1_SQL)
    (choice,) = report.components
    assert [n.split(":")[0] for n in choice.functions] == ["gs", "gp", "gl"]
    assert choice.functions == choice.heuristic_functions


def test_search_is_deterministic(world) -> None:
    plan_a, report_a = _cost_plan(world, ADVERSARIAL_SQL)
    plan_b, report_b = _cost_plan(world, ADVERSARIAL_SQL)
    assert render_plan(plan_a) == render_plan(plan_b)
    assert [c.functions for c in report_a.components] == [
        c.functions for c in report_b.components
    ]


def test_greedy_fallback_past_dp_limit(world) -> None:
    config = OptimizerConfig(dp_limit=2, lookahead=2)
    plan, report = _cost_plan(world, ADVERSARIAL_SQL, config)
    (choice,) = report.components
    assert choice.strategy == "greedy"
    order = [name.split(":")[1] for name in choice.functions]
    # Lookahead 2 still sees past the cheap probe to the audit savings.
    assert order.index("CheckRegion") < order.index("AuditRegion")
    assert plan.schema  # and the ordering is executable


def test_bushy_join_repairs_disconnected_query_order(world) -> None:
    # ra joins rc and rb joins rc, but ra and rb share nothing: the
    # heuristic's query-order left-deep walk rejects the query.
    calculus = generate_calculus(
        parse_query(DISCONNECTED_SQL), world.functions, "Query"
    )
    from repro.algebra.central import create_central_plan

    with pytest.raises(BindingError):
        create_central_plan(calculus, world.functions)
    _plan, report = _cost_plan(world, DISCONNECTED_SQL)
    assert report.join_strategy == "dp"
    assert "⋈" in report.join_shape
    rows = world.sql(DISCONNECTED_SQL, options=COST).rows
    assert sorted(tuple(row) for row in rows) == sorted(
        (f"R{i:02d}",) for i in range(12)
    )


def test_adversarial_rows_match_heuristic(world) -> None:
    cost = world.sql(ADVERSARIAL_SQL, options=COST)
    heuristic = world.sql(ADVERSARIAL_SQL)
    assert cost.as_bag() == heuristic.as_bag()
    assert sorted(tuple(row) for row in cost.rows) == expected_adversarial_rows()
    # The win the estimate promised is real: far fewer expensive calls.
    assert cost.total_calls < heuristic.total_calls
    assert cost.elapsed < heuristic.elapsed


def test_report_describe_mentions_choices(world) -> None:
    _plan, report = _cost_plan(world, ADVERSARIAL_SQL)
    text = report.describe()
    assert "component 0 [dp" in text
    assert "heuristic order:" in text
    assert "ck:CheckRegion" in text


def test_assumptions_snapshot_covers_owfs(world) -> None:
    _plan, report = _cost_plan(world, ADVERSARIAL_SQL)
    assert set(report.assumptions) == {
        "ListRegions",
        "AuditRegion",
        "CheckRegion",
    }
    cost, fanout = report.assumptions["CheckRegion"]
    assert fanout == pytest.approx(0.25)


def test_model_from_observations_overlays_positive_entries() -> None:
    base = CostModel(fanouts={"A": 2.0}, call_costs={"A": 1.0})
    overlaid = model_from_observations(
        base, {"A": (3.0, 0.0), "B": (0.5, 7.0)}
    )
    assert overlaid.call_cost("A") == 3.0
    assert overlaid.fanout("A") == 2.0  # zero observation ignored
    assert overlaid.call_cost("B") == 0.5
    assert overlaid.fanout("B") == 7.0
    assert base.call_cost("A") == 1.0  # base untouched


def test_observed_overlay_changes_the_chosen_order(world) -> None:
    calculus = generate_calculus(
        parse_query(ADVERSARIAL_SQL), world.functions, "Query"
    )
    # Lie to the optimizer: claim the probe costs 5s per call while the
    # audit is cheap and selective.  The order must follow the model.
    model = model_from_observations(
        world.cost_model(), {"CheckRegion": (5.0, 6.0), "AuditRegion": (0.01, 1.0)}
    )
    _plan, report = create_cost_based_plan(calculus, world.functions, model)
    order = [name.split(":")[1] for name in report.components[0].functions]
    assert order.index("AuditRegion") < order.index("CheckRegion")
