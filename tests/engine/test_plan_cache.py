"""Unit tests for the compiled-plan cache."""

import pytest

from repro import QUERY1_SQL, QueryOptions, WSMED, ExecutionMode
from repro.engine import CompiledPlan, PlanCache, plan_dependencies
from repro.util.errors import PlanError


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


def _compiled(wsmed, sql, **kwargs) -> CompiledPlan:
    plan = wsmed.plan(sql, options=QueryOptions(**kwargs))
    return CompiledPlan(plan=plan, dependencies=plan_dependencies(plan))


def test_fingerprint_normalizes_whitespace() -> None:
    a = PlanCache.fingerprint(
        "SELECT  x\n  FROM t", ExecutionMode.CENTRAL, None, None, "Query"
    )
    b = PlanCache.fingerprint(
        "SELECT x FROM t", ExecutionMode.CENTRAL, None, None, "Query"
    )
    assert a == b


def test_fingerprint_distinguishes_mode_and_fanouts() -> None:
    base = PlanCache.fingerprint("SELECT x", ExecutionMode.PARALLEL, [5, 4], None, "Q")
    assert base != PlanCache.fingerprint(
        "SELECT x", ExecutionMode.PARALLEL, [4, 5], None, "Q"
    )
    assert base != PlanCache.fingerprint(
        "SELECT x", ExecutionMode.CENTRAL, [5, 4], None, "Q"
    )


def test_get_put_and_hit_counters(wsmed) -> None:
    cache = PlanCache(capacity=4)
    key = PlanCache.fingerprint(
        QUERY1_SQL, ExecutionMode.PARALLEL, [5, 4], None, "Query"
    )
    assert cache.get(key) is None
    compiled = _compiled(wsmed, QUERY1_SQL, mode="parallel", fanouts=[5, 4])
    cache.put(key, compiled)
    assert cache.get(key) is compiled
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert len(cache) == 1


def test_lru_eviction(wsmed) -> None:
    cache = PlanCache(capacity=2)
    compiled = _compiled(wsmed, QUERY1_SQL, mode="central")
    keys = [
        PlanCache.fingerprint(QUERY1_SQL, ExecutionMode.CENTRAL, None, None, name)
        for name in ("a", "b", "c")
    ]
    for key in keys:
        cache.put(key, compiled)
    assert cache.stats.evictions == 1
    assert cache.get(keys[0]) is None  # oldest evicted
    assert cache.get(keys[1]) is compiled
    assert cache.get(keys[2]) is compiled


def test_dependencies_cover_shipped_plan_functions(wsmed) -> None:
    compiled = _compiled(wsmed, QUERY1_SQL, mode="parallel", fanouts=[5, 4])
    # GetPlaceList is applied three levels down, inside the innermost
    # shipped plan function — the dependency walk must still find it.
    assert {"getallstates", "getplaceswithin", "getplacelist"} <= compiled.dependencies


def test_invalidate_evicts_dependent_plans_only(wsmed) -> None:
    cache = PlanCache(capacity=8)
    q1 = PlanCache.fingerprint(QUERY1_SQL, ExecutionMode.PARALLEL, [5, 4], None, "Q1")
    central = PlanCache.fingerprint(QUERY1_SQL, ExecutionMode.CENTRAL, None, None, "Qc")
    cache.put(q1, _compiled(wsmed, QUERY1_SQL, mode="parallel", fanouts=[5, 4]))
    cache.put(central, _compiled(wsmed, QUERY1_SQL, mode="central"))
    assert cache.invalidate("GetPlaceList") == 2
    assert len(cache) == 0
    cache.put(q1, _compiled(wsmed, QUERY1_SQL, mode="parallel", fanouts=[5, 4]))
    assert cache.invalidate("GetInfoByState") == 0  # not referenced by Query1
    assert len(cache) == 1
    assert cache.stats.invalidations == 2


def test_capacity_must_be_positive() -> None:
    with pytest.raises(PlanError):
        PlanCache(capacity=0)
