"""End-to-end cache behavior through the WSMED facade.

The paper's example queries have mostly distinct call keys, so these
tests register a *skewed* helping function — many repetitions of a few
zip codes — which is the workload where memoization pays: central mode
avoids repeat calls outright, and in parallel mode ``hash_affinity``
dispatch keeps equal keys on the same child so its per-process cache
accumulates hits.
"""

from __future__ import annotations

import pytest

from repro.cache import CacheConfig
from repro.fdb.functions import helping_function
from repro.fdb.types import CHARSTRING, TupleType
from repro.parallel.costs import ProcessCosts
from repro.wsmed.options import QueryOptions
from repro.wsmed.system import WSMED

SKEW_SQL = """
Select gp.ToPlace, gp.ToState
From   skewed_zips sz, GetPlacesInside gp
Where  gp.zip = sz.zip
"""

DISTINCT_ZIPS = 12
REPEATS = 5  # 60 parameter tuples over 12 distinct keys
CACHE_ON = CacheConfig(enabled=True)
CACHED = QueryOptions(cache=CACHE_ON)
PARALLEL = QueryOptions(mode="parallel", fanouts=[4])


def build_wsmed(costs: ProcessCosts | None = None) -> WSMED:
    system = WSMED(profile="fast", process_costs=costs)
    system.import_all()
    zips = system.registry.geodata.zipcodes_of("Colorado")[:DISTINCT_ZIPS]
    assert len(zips) == DISTINCT_ZIPS
    system.register_helping_function(
        helping_function(
            "skewed_zips",
            [],
            TupleType((("zip", CHARSTRING),)),
            lambda: [(code,) for code in zips] * REPEATS,
            documentation="A skewed parameter stream: each zip repeated.",
        )
    )
    return system


@pytest.fixture(scope="module")
def wsmed():
    return build_wsmed()


# -- default-off equivalence --------------------------------------------------


def test_cache_off_by_default(wsmed) -> None:
    result = wsmed.sql(SKEW_SQL)
    assert result.cache_stats is None
    assert result.total_calls == DISTINCT_ZIPS * REPEATS


def test_disabled_config_is_bit_for_bit_default(wsmed) -> None:
    default = wsmed.sql(SKEW_SQL)
    disabled = wsmed.sql(
        SKEW_SQL, options=QueryOptions(cache=CacheConfig(enabled=False))
    )
    assert disabled.cache_stats is None
    assert disabled.total_calls == default.total_calls
    assert disabled.elapsed == default.elapsed
    assert disabled.rows == default.rows


# -- central-mode memoization -------------------------------------------------


def test_cache_cuts_calls_and_time_in_central_mode(wsmed) -> None:
    off = wsmed.sql(SKEW_SQL)
    on = wsmed.sql(SKEW_SQL, options=CACHED)
    assert on.as_bag() == off.as_bag()
    assert on.total_calls == DISTINCT_ZIPS  # every repeat served from cache
    assert on.cache_stats.hits == DISTINCT_ZIPS * (REPEATS - 1)
    assert on.elapsed < off.elapsed
    assert "call cache:" in on.summary()
    assert "call cache: off" not in on.report(sections="cache")


def test_cache_hits_show_up_in_trace(wsmed) -> None:
    on = wsmed.sql(SKEW_SQL, options=CACHED)
    assert on.trace.count("cache_hit") == on.cache_stats.hits
    assert on.trace.count("service_call") == on.total_calls


def test_system_wide_cache_config_applies() -> None:
    system = build_wsmed()
    system.cache_config = CacheConfig(enabled=True)
    result = system.sql(SKEW_SQL)
    assert result.cache_stats is not None
    assert result.cache_stats.hits > 0


# -- parallel mode: per-process caches and dispatch affinity ------------------


def run_parallel_hit_rate(dispatch: str):
    costs = ProcessCosts(dispatch=dispatch).scaled(0.01)
    system = build_wsmed(costs)
    return system.sql(SKEW_SQL, options=PARALLEL.replace(cache=CACHE_ON))


def test_hash_affinity_beats_first_finished_hit_rate(wsmed) -> None:
    baseline = wsmed.sql(SKEW_SQL)  # central, cache off: ground truth rows
    affinity = run_parallel_hit_rate("hash_affinity")
    first_finished = run_parallel_hit_rate("first_finished")
    assert affinity.as_bag() == baseline.as_bag()
    assert first_finished.as_bag() == baseline.as_bag()
    # Equal keys always land on the same child under hash affinity, so
    # the per-process caches see every repeat; first-finished scatters
    # repeats across children, each of which must miss once per key.
    assert affinity.cache_stats.hit_rate > first_finished.cache_stats.hit_rate
    assert affinity.total_calls < first_finished.total_calls


def test_parallel_cache_cuts_broker_calls_at_least_a_quarter(wsmed) -> None:
    costs = ProcessCosts(dispatch="hash_affinity").scaled(0.01)
    system = build_wsmed(costs)
    off = system.sql(SKEW_SQL, options=PARALLEL)
    on = system.sql(SKEW_SQL, options=PARALLEL.replace(cache=CACHE_ON))
    assert on.as_bag() == off.as_bag()
    assert on.total_calls <= 0.75 * off.total_calls
    assert on.elapsed < off.elapsed
