"""Cost-optimized plans return exactly the heuristic plans' row bags.

The optimizer may reorder calls, reshape joins and swap access paths, but
it must never change *what* a query returns — only how fast.  This suite
checks the paper's Fig 1/Fig 3 queries and the synthetic optimizer world
in both execution modes and on both kernels, then lets Hypothesis feed
random observed-statistics overlays to the cost model and checks the row
bag is invariant under every plan the search can pick.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.optimizer_world import (
    ADVERSARIAL_SQL,
    REWRITE_DIRECT_SQL,
    REWRITE_SQL,
    build_optimizer_world,
    expected_rewrite_rows,
)
from repro import WSMED, AsyncioKernel, GeoConfig, QueryOptions, build_registry
from repro.util.errors import BindingError

from tests.helpers import QUERY1_SQL, QUERY2_SQL

COST = QueryOptions(optimize="cost")

SMALL_GEO = GeoConfig(
    seed=11,
    atlanta_state_count=4,
    neighbors_per_atlanta=3,
    locale_twin_total=6,
    zipcodes_per_state=8,
)

PAPER_QUERIES = [QUERY1_SQL, QUERY2_SQL]

# Operations the two worlds' cost models know about; overlays draw from
# these so Hypothesis explores orders the default model would never pick.
PAPER_OPS = [
    "GetAllStates",
    "GetPlacesWithin",
    "GetPlaceList",
    "GetInfoByState",
    "GetPlacesInside",
]
SYNTH_OPS = ["ListRegions", "AuditRegion", "CheckRegion"]


@pytest.fixture(scope="module")
def paper_world():
    wsmed = WSMED(build_registry("fast", geo_config=SMALL_GEO))
    wsmed.import_all()
    bags = [wsmed.sql(sql).as_bag() for sql in PAPER_QUERIES]
    return wsmed, bags


@pytest.fixture(scope="module")
def synth_world():
    wsmed = build_optimizer_world()
    bag = wsmed.sql(ADVERSARIAL_SQL).as_bag()
    return wsmed, bag


@pytest.mark.parametrize("query_index", [0, 1])
@pytest.mark.parametrize("mode", ["central", "parallel", "adaptive"])
def test_cost_matches_heuristic_on_paper_queries(
    paper_world, query_index, mode
) -> None:
    wsmed, bags = paper_world
    options = COST.replace(mode=mode)
    if mode == "parallel":
        options = options.replace(fanouts=[3, 2])
    result = wsmed.sql(PAPER_QUERIES[query_index], options=options)
    assert result.as_bag() == bags[query_index]


@pytest.mark.parametrize("query_index", [0, 1])
def test_cost_matches_heuristic_on_realtime_kernel(
    paper_world, query_index
) -> None:
    wsmed, bags = paper_world
    result = wsmed.sql(
        PAPER_QUERIES[query_index],
        options=COST.replace(
            mode="parallel", fanouts=[2, 2], kernel=AsyncioKernel(time_scale=0.002)
        ),
    )
    assert result.as_bag() == bags[query_index]


def test_rewrite_query_runs_on_realtime_kernel(synth_world) -> None:
    wsmed, _bag = synth_world
    result = wsmed.sql(
        REWRITE_SQL,
        options=COST.replace(kernel=AsyncioKernel(time_scale=0.002)),
    )
    assert sorted(tuple(r) for r in result.rows) == expected_rewrite_rows()


@given(
    query_index=st.integers(min_value=0, max_value=1),
    observed=st.dictionaries(
        st.sampled_from(PAPER_OPS),
        st.tuples(
            st.floats(min_value=0.001, max_value=10.0),
            st.floats(min_value=0.1, max_value=50.0),
        ),
        max_size=len(PAPER_OPS),
    ),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_random_observations_never_change_paper_rows(
    paper_world, query_index, observed
) -> None:
    wsmed, bags = paper_world
    result = wsmed.sql(
        PAPER_QUERIES[query_index],
        options=COST.replace(observed=observed),
    )
    assert result.as_bag() == bags[query_index]


@given(
    observed=st.dictionaries(
        st.sampled_from(SYNTH_OPS),
        st.tuples(
            st.floats(min_value=0.001, max_value=10.0),
            st.floats(min_value=0.1, max_value=50.0),
        ),
        max_size=len(SYNTH_OPS),
    ),
    mode=st.sampled_from(["central", "adaptive"]),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_random_observations_never_change_synthetic_rows(
    synth_world, observed, mode
) -> None:
    wsmed, bag = synth_world
    result = wsmed.sql(
        ADVERSARIAL_SQL, options=COST.replace(mode=mode, observed=observed)
    )
    assert result.as_bag() == bag


def test_rewrite_query_matches_direct_equivalent(synth_world) -> None:
    wsmed, _bag = synth_world
    with pytest.raises(BindingError):
        wsmed.sql(REWRITE_SQL)
    rewritten = wsmed.sql(REWRITE_SQL, options=COST)
    direct = wsmed.sql(REWRITE_DIRECT_SQL)
    assert rewritten.as_bag() == direct.as_bag()
    assert sorted(tuple(r) for r in rewritten.rows) == expected_rewrite_rows()
