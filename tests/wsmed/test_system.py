"""Tests for the WSMED facade."""

import pytest

from repro import (
    QUERY1_SQL,
    QUERY2_SQL,
    AdaptationParams,
    ExecutionMode,
    QueryOptions,
    WSMED,
)
from repro.util.errors import PlanError

Q1_PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4], name="Query1")


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


def test_import_generates_all_owfs(wsmed) -> None:
    names = {f.name for f in wsmed.functions.owfs()}
    assert names == {
        "GetAllStates",
        "GetPlacesWithin",
        "GetPlaceList",
        "GetInfoByState",
        "GetPlacesInside",
    }


def test_catalog_records_metadata(wsmed) -> None:
    assert len(wsmed.catalog.owf_names()) == 5
    uri, service, operation = wsmed.catalog.operation_of("GetPlacesInside")
    assert service == "Zipcodes"
    assert operation == "GetPlacesInside"
    assert wsmed.catalog.parameters_of("GetPlacesInside") == [("zip", "Charstring")]


def test_getzipcode_registered_by_default(wsmed) -> None:
    function = wsmed.functions.resolve("getzipcode")
    assert function.kind.value == "helping"


def test_central_query2(wsmed) -> None:
    result = wsmed.sql(QUERY2_SQL, options=QueryOptions(name="Query2"))
    assert result.rows == [("CO", "80840")]
    assert result.columns == ("ToState", "zip")
    assert result.total_calls == 5001
    assert result.mode == "central"
    assert result.elapsed > 0


def test_parallel_query1(wsmed) -> None:
    result = wsmed.sql(QUERY1_SQL, options=Q1_PARALLEL)
    assert len(result) == 360
    assert result.tree.processes_spawned == 25
    central = wsmed.sql(QUERY1_SQL)
    assert result.as_bag() == central.as_bag()
    assert result.elapsed < central.elapsed


def test_adaptive_mode_defaults(wsmed) -> None:
    result = wsmed.sql(QUERY2_SQL, options=QueryOptions(mode=ExecutionMode.ADAPTIVE))
    assert result.rows == [("CO", "80840")]
    assert result.tree.add_stages > 0


def test_adaptive_custom_params(wsmed) -> None:
    result = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(
            mode="adaptive", adaptation=AdaptationParams(p=1, drop_stage=True)
        ),
    )
    assert len(result) == 360


def test_parallel_requires_fanouts(wsmed) -> None:
    with pytest.raises(PlanError, match="fanout"):
        wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="parallel"))


def test_unknown_mode_rejected(wsmed) -> None:
    with pytest.raises(PlanError, match="unknown execution mode"):
        wsmed.sql(QUERY1_SQL, options=QueryOptions(mode="turbo"))


def test_result_helpers(wsmed) -> None:
    result = wsmed.sql(
        "SELECT gs.Name FROM GetAllStates gs WHERE gs.State = 'Ohio'"
    )
    assert result.as_dicts() == [{"Name": "Ohio"}]
    assert result.calls("GetAllStates") == 1
    assert result.calls("GetPlaceList") == 0
    assert "1 rows" in result.summary()


def test_explain_contains_all_sections(wsmed) -> None:
    report = wsmed.explain(QUERY1_SQL, options=Q1_PARALLEL)
    assert "-- calculus --" in report
    assert "Query1(" in report
    assert "FF_APPLYP" in report
    assert "plan function PF1" in report
    assert "sequential time" in report


def test_owf_source_rendering(wsmed) -> None:
    source = wsmed.owf_source("GetAllStates")
    assert "create function GetAllStates()" in source
    with pytest.raises(PlanError):
        wsmed.owf_source("NotAnOwf")


def test_views_rendering(wsmed) -> None:
    views = wsmed.views()
    assert "CREATE VIEW GetPlacesWithin" in views
    assert "-- input" in views
    assert "-- output" in views


def test_reimport_is_idempotent(wsmed) -> None:
    first = set(wsmed.import_all())
    second = set(wsmed.import_all())
    assert first == second
    result = wsmed.sql("SELECT gs.Name FROM GetAllStates gs WHERE gs.State='Utah'")
    assert result.rows == [("Utah",)]


def test_summary_mentions_tree_for_parallel(wsmed) -> None:
    result = wsmed.sql(
        QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[3, 2])
    )
    assert "process tree" in result.summary()
