"""The unified QueryOptions API: the only way to pass per-query options."""

import warnings

import pytest

from repro import (
    QUERY1_SQL,
    QueryEngine,
    QueryOptions,
    WSMED,
)
from repro.util.errors import PlanError
from repro.wsmed.options import ENGINE_ONLY, ONE_SHOT_ONLY, resolve_options


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


# -- resolve_options mechanics ---------------------------------------------------


def test_no_legacy_keywords_no_warning() -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resolved = resolve_options(None, where="WSMED.sql")
    assert resolved == QueryOptions()


def test_unknown_legacy_keyword_is_a_type_error(wsmed) -> None:
    with pytest.raises(TypeError, match="fanout_vector"):
        wsmed.sql(QUERY1_SQL, fanout_vector=[3])


def test_non_options_object_is_rejected() -> None:
    with pytest.raises(PlanError, match="QueryOptions"):
        resolve_options({"mode": "central"}, where="WSMED.sql")


def test_rejected_fields_raise_only_when_set() -> None:
    resolve_options(QueryOptions(), where="X", rejected=ENGINE_ONLY)
    with pytest.raises(PlanError, match="tenant"):
        resolve_options(
            QueryOptions(tenant="analytics"), where="X", rejected=ENGINE_ONLY
        )


# -- no second way in -------------------------------------------------------------


@pytest.fixture(scope="module")
def engine(wsmed):
    engine = QueryEngine(wsmed)
    yield engine
    engine.close()


@pytest.mark.parametrize(
    "owner, method",
    [
        ("wsmed", "sql"),
        ("wsmed", "plan"),
        ("wsmed", "explain"),
        ("engine", "sql"),
        ("engine", "sql_async"),
        ("engine", "sql_many"),
    ],
)
def test_former_keyword_arguments_are_type_errors(wsmed, engine, owner, method) -> None:
    entry_point = getattr({"wsmed": wsmed, "engine": engine}[owner], method)
    with pytest.raises(TypeError, match="mode"):
        entry_point(QUERY1_SQL, mode="central")


def test_wsmed_explain_accepts_options(wsmed) -> None:
    central = wsmed.explain(QUERY1_SQL)
    parallel = wsmed.explain(
        QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[5, 4])
    )
    assert "FF_APPLYP" not in central
    assert "FF_APPLYP" in parallel


# -- per-surface rejections ------------------------------------------------------


def test_one_shot_rejects_engine_only_fields(wsmed) -> None:
    with pytest.raises(PlanError, match="tenant"):
        wsmed.sql(QUERY1_SQL, options=QueryOptions(tenant="analytics"))
    with pytest.raises(PlanError, match="deadline_ms"):
        wsmed.sql(QUERY1_SQL, options=QueryOptions(deadline_ms=50.0))


def test_engine_rejects_one_shot_only_fields() -> None:
    system = WSMED(profile="fast")
    system.import_all()
    engine = QueryEngine(system)
    try:
        with pytest.raises(PlanError, match="fault_rate"):
            engine.sql(QUERY1_SQL, options=QueryOptions(fault_rate=0.5))
        with pytest.raises(PlanError, match="observed"):
            engine.sql(QUERY1_SQL, options=QueryOptions(observed={}))
    finally:
        engine.close()


def test_sql_many_overrides_pass_the_engine_surface_check(engine) -> None:
    parallel = QueryOptions(mode="parallel", fanouts=[5, 4])
    results = engine.sql_many(
        [
            QUERY1_SQL,
            (QUERY1_SQL, parallel.replace(fault_rate=0.5)),
            (QUERY1_SQL, parallel.replace(observed={"GetPlaceList": (1.0, 1.0)})),
            (QUERY1_SQL, {"mode": "central"}),
        ],
        return_exceptions=True,
        options=parallel,
    )
    assert len(results[0].rows) == 360
    assert results[0].total_calls == 311
    for result, match in zip(results[1:], ["fault_rate", "observed", "QueryOptions"]):
        assert isinstance(result, PlanError)
        assert match in str(result)


def test_field_sets_cover_distinct_fields() -> None:
    assert not (ONE_SHOT_ONLY & ENGINE_ONLY)
    field_names = set(QueryOptions.__dataclass_fields__)
    assert ONE_SHOT_ONLY <= field_names
    assert ENGINE_ONLY <= field_names


def test_options_replace_validates_names() -> None:
    options = QueryOptions()
    assert options.replace(retries=2).retries == 2
    with pytest.raises(TypeError):
        options.replace(retrys=2)
