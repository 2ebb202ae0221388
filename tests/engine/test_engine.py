"""Resident-engine behaviour: cold equivalence, warm reuse, invalidation."""

import warnings
from collections import Counter

import pytest

from repro import (
    QUERY1_SQL,
    AsyncioKernel,
    CacheConfig,
    QueryEngine,
    QueryOptions,
    SimKernel,
    WSMED,
)
from repro.util.errors import ReproError

PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])


def fresh_wsmed() -> WSMED:
    system = WSMED(profile="fast")
    system.import_all()
    return system


def fresh_engine(**kwargs) -> QueryEngine:
    return QueryEngine(fresh_wsmed(), **kwargs)


def _norm(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _norm(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_norm(v) for v in value)
    return value


def trace_multiset(trace) -> Counter:
    """Order-insensitive view of a trace: multiset of (kind, payload)."""
    return Counter((event.kind, _norm(event.data)) for event in trace)


# -- construction ------------------------------------------------------------------


def test_rejects_non_resident_kernel() -> None:
    with pytest.raises(ReproError, match="resident"):
        QueryEngine(fresh_wsmed(), kernel=SimKernel())


def test_rejects_bad_concurrency() -> None:
    with pytest.raises(ReproError, match="max_concurrency"):
        QueryEngine(fresh_wsmed(), max_concurrency=0)


def test_closed_engine_refuses_queries() -> None:
    engine = fresh_engine()
    engine.close()
    with pytest.raises(ReproError, match="closed"):
        engine.sql(QUERY1_SQL, options=PARALLEL)
    engine.close()  # idempotent


# -- cold equivalence ------------------------------------------------------------


@pytest.mark.parametrize(
    "options",
    [
        QueryOptions(mode="central"),
        PARALLEL,
        QueryOptions(mode="adaptive"),
        PARALLEL.replace(cache=CacheConfig(enabled=True)),
    ],
    ids=["central", "parallel", "adaptive", "parallel-cached"],
)
def test_cold_query_is_bit_for_bit_identical_to_wsmed(options) -> None:
    seed = fresh_wsmed().sql(QUERY1_SQL, options=options)

    engine = fresh_engine()
    cold = engine.sql(QUERY1_SQL, options=options)
    engine.close()  # parks process_exit events in the query's trace

    assert cold.rows == seed.rows
    assert cold.columns == seed.columns
    assert cold.total_calls == seed.total_calls
    assert cold.message_stats == seed.message_stats
    assert cold.cache_stats == seed.cache_stats
    assert trace_multiset(cold.trace) == trace_multiset(seed.trace)


# -- warm reuse ------------------------------------------------------------------


def test_warm_query_spawns_nothing_and_reuses_the_tree() -> None:
    engine = fresh_engine()
    cold = engine.sql(QUERY1_SQL, options=PARALLEL)
    warm = engine.sql(QUERY1_SQL, options=PARALLEL)

    assert cold.trace.count("spawn") == 25  # 5 + 5*4 processes
    assert warm.trace.count("spawn") == 0
    assert warm.trace.count("install") == 0
    assert sorted(warm.rows) == sorted(cold.rows)
    assert warm.total_calls == cold.total_calls
    assert warm.elapsed < cold.elapsed

    stats = engine.stats()
    assert stats.plan_cache_hits == 1
    assert stats.warm_leases == 1
    assert stats.cold_starts == 1
    assert stats.idle_pools == 1
    assert stats.resident_processes == 25
    engine.close()
    assert engine.stats().idle_pools == 0
    assert engine.stats().resident_processes == 0


def test_warm_query_keeps_child_call_caches() -> None:
    engine = fresh_engine()
    config = CacheConfig(enabled=True)
    cold = engine.sql(QUERY1_SQL, options=PARALLEL.replace(cache=config))
    warm = engine.sql(QUERY1_SQL, options=PARALLEL.replace(cache=config))
    engine.close()

    assert cold.cache_stats.hits == 0
    # Every repeated call in the warm query hits a child's resident cache,
    # and per-query counters start at zero (no bleed from the cold query).
    assert warm.cache_stats.hits > 0
    assert warm.cache_stats.misses < cold.cache_stats.misses
    assert warm.total_calls < cold.total_calls


def test_warm_message_counters_are_per_query() -> None:
    engine = fresh_engine()
    cold = engine.sql(QUERY1_SQL, options=PARALLEL)
    warm = engine.sql(QUERY1_SQL, options=PARALLEL)
    engine.close()
    # Same statement, same tree: the warm query moves the same tuples.
    assert warm.message_stats == cold.message_stats


# -- invalidation ------------------------------------------------------------------


def test_wsdl_reimport_evicts_plans_and_cold_starts_pools() -> None:
    wsmed = fresh_wsmed()
    engine = QueryEngine(wsmed)
    first = engine.sql(QUERY1_SQL, options=PARALLEL)

    uri, _, _ = wsmed.catalog.operation_of("GetPlacesWithin")
    wsmed.import_wsdl(uri)  # replaces the OWF definitions

    assert engine.stats().plan_cache_entries == 0
    again = engine.sql(QUERY1_SQL, options=PARALLEL)
    stats = engine.stats()
    assert stats.plan_cache_misses == 2  # recompiled after invalidation
    assert stats.plan_cache_invalidations >= 1
    assert stats.warm_leases == 0  # the warm tree was condemned, not reused
    assert stats.cold_starts == 2
    assert stats.pools_condemned >= 1
    assert again.trace.count("spawn") == 25
    assert sorted(again.rows) == sorted(first.rows)
    engine.close()


def test_helping_function_replace_only_hits_dependents() -> None:
    from repro.fdb.functions import helping_function
    from repro.fdb.types import CHARSTRING, TupleType

    wsmed = fresh_wsmed()
    engine = QueryEngine(wsmed)
    engine.sql(QUERY1_SQL, options=PARALLEL)

    # Query1 never applies getzipcode: replacing it must not disturb
    # the cached plan or the warm tree.
    wsmed.register_helping_function(
        helping_function(
            "getzipcode",
            [("zipstr", CHARSTRING)],
            TupleType((("zipcode", CHARSTRING),)),
            lambda zipstr: [(code,) for code in zipstr.split(",") if code],
        )
    )
    engine.sql(QUERY1_SQL, options=PARALLEL)
    stats = engine.stats()
    assert stats.plan_cache_hits == 1
    assert stats.warm_leases == 1
    assert stats.pools_condemned == 0
    engine.close()


def test_max_idle_pools_zero_disables_reuse() -> None:
    engine = fresh_engine(max_idle_pools=0)
    engine.sql(QUERY1_SQL, options=PARALLEL)
    warm_attempt = engine.sql(QUERY1_SQL, options=PARALLEL)
    stats = engine.stats()
    assert stats.warm_leases == 0
    assert stats.pools_trimmed == 2
    assert warm_attempt.trace.count("spawn") == 25
    engine.close()


# -- concurrent admission ------------------------------------------------------------


def test_concurrent_queries_have_partitioned_results() -> None:
    engine = fresh_engine(max_concurrency=4)
    config = CacheConfig(enabled=True)
    first, second = engine.sql_many(
        [QUERY1_SQL, QUERY1_SQL], options=PARALLEL.replace(cache=config)
    )

    assert first.trace is not second.trace
    assert sorted(first.rows) == sorted(second.rows)
    # Call statistics are per query and sum to the broker's global count.
    assert first.total_calls == second.total_calls == 311
    assert engine.broker.total_calls() == first.total_calls + second.total_calls
    # Cache counters are per query too: both trees start cold (each query
    # leases its own tree), so neither sees the other's hits.
    assert first.cache_stats.misses == second.cache_stats.misses
    # Each trace holds exactly one tree's worth of activity.
    assert first.trace.count("spawn") == second.trace.count("spawn") == 25
    stats = engine.stats()
    assert stats.peak_concurrency == 2
    assert stats.cold_starts == 2 and stats.warm_leases == 0
    engine.close()


def test_admission_respects_max_concurrency() -> None:
    engine = fresh_engine(max_concurrency=1)
    results = engine.sql_many([QUERY1_SQL] * 3, options=PARALLEL)
    assert engine.stats().peak_concurrency == 1
    assert all(sorted(r.rows) == sorted(results[0].rows) for r in results)
    # Serialized queries reuse the single warm tree back to back.
    assert engine.stats().warm_leases == 2
    engine.close()


def test_sql_many_accepts_per_query_overrides() -> None:
    engine = fresh_engine(max_concurrency=2)
    parallel, central = engine.sql_many(
        [QUERY1_SQL, (QUERY1_SQL, PARALLEL.replace(mode="central", fanouts=None))],
        options=PARALLEL,
    )
    assert parallel.mode == "parallel"
    assert central.mode == "central"
    assert sorted(parallel.rows) == sorted(central.rows)
    engine.close()


# -- asyncio parity ------------------------------------------------------------------


def test_asyncio_resident_kernel_parity() -> None:
    sim = fresh_engine()
    expected = sim.sql(QUERY1_SQL, options=PARALLEL)
    sim.close()

    engine = QueryEngine(
        fresh_wsmed(), kernel=AsyncioKernel(resident=True, time_scale=0.0005)
    )
    cold = engine.sql(QUERY1_SQL, options=PARALLEL)
    warm = engine.sql(QUERY1_SQL, options=PARALLEL)
    engine.close()

    assert sorted(cold.rows) == sorted(expected.rows)
    assert sorted(warm.rows) == sorted(expected.rows)
    assert warm.trace.count("spawn") == 0
    assert engine.stats().warm_leases == 1


# -- no deprecated surfaces on the engine's own paths ---------------------------------


@pytest.mark.parametrize("optimize", ["heuristic", "cost"])
def test_engine_compiles_without_deprecation_warnings(optimize) -> None:
    # The engine's compile step must not emit a deprecation warning.
    engine = fresh_engine()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            options = PARALLEL.replace(optimize=optimize)
            cold = engine.sql(QUERY1_SQL, options=options)
            warm = engine.sql(QUERY1_SQL, options=options)
    finally:
        engine.close()
    assert len(cold.rows) == len(warm.rows) == 360
