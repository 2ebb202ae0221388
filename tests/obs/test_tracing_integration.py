"""End-to-end tracing: well-formed span trees for the paper's two queries
under both kernels, cross-process links, critical-path analysis, and the
guarantee that tracing never changes what a query computes."""

import warnings

import pytest

from repro import (
    QUERY1_SQL,
    QUERY2_SQL,
    AsyncioKernel,
    QueryEngine,
    QueryOptions,
    TraceRecorder,
    WSMED,
)
from repro.obs.validate import validate_spans

SCALE = 0.002  # one model second = 2 wall milliseconds
Q1_PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])
Q2_PARALLEL = QueryOptions(mode="parallel", fanouts=[4, 3])


def traced(options: QueryOptions, **overrides) -> QueryOptions:
    """``options`` with a fresh :class:`TraceRecorder` (and overrides)."""
    return options.replace(obs=TraceRecorder(), **overrides)


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


def _assert_well_formed(result, *, expect_children: bool) -> None:
    store = result.spans
    assert store is not None and len(store) > 0
    assert validate_spans(store) == []
    categories = {span.category for span in store}
    assert {"compile", "query", "ws", "queue", "server"} <= categories
    if expect_children:
        assert "invoke" in categories and "call" in categories
    # One ws span per recorded web-service call.
    assert len(store.by_category("ws")) == result.total_calls


def _assert_cross_process_links_resolve(store) -> None:
    """Child call spans parent under operator spans of *other* processes."""
    crossing = [
        span
        for span in store
        if span.parent != -1
        and not span.instant
        and store.get(span.parent).process != span.process
        and span.category == "call"
    ]
    assert crossing, "expected shipped work to link back to its sender"
    for span in crossing:
        assert store.get(span.parent).category == "invoke"


# -- Fig 1 (QUERY1) -----------------------------------------------------------


def test_query1_traced_under_sim_kernel(wsmed) -> None:
    result = wsmed.sql(QUERY1_SQL, options=traced(Q1_PARALLEL))
    assert len(result.rows) == 360
    _assert_well_formed(result, expect_children=True)
    _assert_cross_process_links_resolve(result.spans)


def test_query1_traced_under_asyncio_kernel(wsmed) -> None:
    result = wsmed.sql(
        QUERY1_SQL,
        options=traced(Q1_PARALLEL, kernel=AsyncioKernel(time_scale=SCALE)),
    )
    assert len(result.rows) == 360
    _assert_well_formed(result, expect_children=True)
    _assert_cross_process_links_resolve(result.spans)


# -- Fig 3 (QUERY2) -----------------------------------------------------------


def test_query2_traced_under_sim_kernel(wsmed) -> None:
    result = wsmed.sql(QUERY2_SQL, options=traced(Q2_PARALLEL))
    _assert_well_formed(result, expect_children=True)
    _assert_cross_process_links_resolve(result.spans)
    report = result.critical_path()
    # The report must name a slowest web service and the tree level it
    # lives at (the acceptance criterion of the observability layer).
    assert report.slowest_service in {
        "GetAllStates",
        "GetInfoByState",
        "GetPlacesInside",
    }
    assert report.slowest_level is not None and report.slowest_level.level >= 0
    rendered = report.render()
    assert "bottleneck:" in rendered and "level" in rendered


def test_query2_traced_under_asyncio_kernel(wsmed) -> None:
    result = wsmed.sql(
        QUERY2_SQL,
        options=traced(Q2_PARALLEL, kernel=AsyncioKernel(time_scale=SCALE / 4)),
    )
    _assert_well_formed(result, expect_children=True)


def test_adaptive_run_records_adaptation_instants(wsmed) -> None:
    result = wsmed.sql(QUERY1_SQL, options=traced(QueryOptions(mode="adaptive")))
    _assert_well_formed(result, expect_children=True)
    adapt = [span.name for span in result.spans.by_category("adapt")]
    assert "init_stage" in adapt
    assert "cycle" in adapt


def test_central_mode_traces_without_child_processes(wsmed) -> None:
    result = wsmed.sql(QUERY1_SQL, options=traced(QueryOptions()))
    _assert_well_formed(result, expect_children=False)


# -- tracing must not change the computation ---------------------------------


def test_tracing_does_not_change_the_execution(wsmed) -> None:
    plain = wsmed.sql(QUERY1_SQL, options=Q1_PARALLEL)
    result = wsmed.sql(QUERY1_SQL, options=traced(Q1_PARALLEL))
    assert result.rows == plain.rows
    assert result.elapsed == plain.elapsed
    assert result.total_calls == plain.total_calls
    assert result.message_stats.as_dict() == plain.message_stats.as_dict()
    assert sorted(map(str, result.trace)) == sorted(map(str, plain.trace))


def test_untraced_result_has_no_spans(wsmed) -> None:
    result = wsmed.sql(QUERY1_SQL)
    assert result.spans is None
    assert len(result.critical_path().path) == 0


# -- the resident engine ------------------------------------------------------


def test_engine_traces_warm_and_cold_queries(wsmed) -> None:
    engine = QueryEngine(wsmed)
    try:
        cold = engine.sql(QUERY1_SQL, options=traced(Q1_PARALLEL))
        warm = engine.sql(QUERY1_SQL, options=traced(Q1_PARALLEL))
    finally:
        engine.close()
    for result in (cold, warm):
        assert validate_spans(result.spans) == []
        assert len(result.spans.by_category("ws")) == result.total_calls
    # Compile spans only on the cold (plan-cache miss) run.
    assert cold.spans.by_category("compile")
    assert not warm.spans.by_category("compile")


# -- the redesigned stats API -------------------------------------------------


def test_report_rejects_unknown_sections(wsmed) -> None:
    result = wsmed.sql(QUERY1_SQL)
    with pytest.raises(ValueError, match="unknown report section"):
        result.report(sections="nonsense")


def test_summary_emits_no_deprecation_warnings(wsmed) -> None:
    result = wsmed.sql(QUERY1_SQL, options=Q1_PARALLEL)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result.summary()
        result.report()


def test_metrics_registry_reflects_execution(wsmed) -> None:
    result = wsmed.sql(QUERY1_SQL, options=Q1_PARALLEL)
    registry = result.metrics()
    assert registry.value("query.total_calls") == result.total_calls
    assert registry.value("query.rows") == len(result.rows)
    assert (
        registry.value("ws.calls", {"operation": "GetPlaceList"})
        == result.calls("GetPlaceList")
    )
    assert registry.value("tree.processes_spawned") == result.tree.processes_spawned
    assert registry.value("messages.total") == result.message_stats.total_messages
