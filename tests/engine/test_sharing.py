"""Cross-query sharing: equivalence, fault isolation, mid-query invalidation."""

import pytest

from repro import (
    QUERY1_SQL,
    AsyncioKernel,
    QueryEngine,
    ShareConfig,
)
from repro.util.errors import ReproError
from repro.wsmed.options import QueryOptions

from tests.engine.test_engine import fresh_wsmed, trace_multiset

PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])


def sharing_engine(wsmed=None, **share_kwargs) -> QueryEngine:
    return QueryEngine(
        wsmed or fresh_wsmed(),
        share=ShareConfig(enabled=True, **share_kwargs),
    )


# -- configuration ------------------------------------------------------------------


def test_share_config_validation() -> None:
    with pytest.raises(ReproError, match="max_entries"):
        ShareConfig(max_entries=0)
    with pytest.raises(ReproError, match="ttl"):
        ShareConfig(ttl=-1.0)
    with pytest.raises(ReproError, match="batch_linger"):
        ShareConfig(batch_linger=-0.1)
    with pytest.raises(ReproError, match="batch_max"):
        ShareConfig(batch_max=0)


def test_disabled_share_config_is_seed_identical() -> None:
    """``ShareConfig(enabled=False)`` must leave no trace of the tier."""
    seed = fresh_wsmed().sql(QUERY1_SQL, options=PARALLEL)

    engine = QueryEngine(fresh_wsmed(), share=ShareConfig())
    assert engine.shared is None
    assert not engine.pool_registry.share_pools
    result = engine.sql(QUERY1_SQL, options=PARALLEL)
    engine.close()

    assert result.rows == seed.rows
    assert result.total_calls == seed.total_calls
    assert result.cache_stats == seed.cache_stats
    assert trace_multiset(result.trace) == trace_multiset(seed.trace)
    assert not engine.stats().sharing


# -- result equivalence ------------------------------------------------------------


def test_overlapping_queries_match_independent_runs() -> None:
    """N concurrent identical queries return the independent-run rows."""
    seed = fresh_wsmed().sql(QUERY1_SQL, options=PARALLEL)

    engine = sharing_engine()
    results = engine.sql_many([QUERY1_SQL] * 4, options=PARALLEL)
    broker_calls = engine.broker.total_calls()
    stats = engine.stats()
    engine.close()

    for result in results:
        assert sorted(result.rows) == sorted(seed.rows)
        assert result.columns == seed.columns
    # The whole batch cost (about) one query's worth of broker work:
    # overlapping trees are leased serially, so followers replay the
    # first query's per-process caches and shared memo.
    assert broker_calls <= seed.total_calls + 16
    assert stats.sharing
    assert stats.shared_cache_hits + stats.shared_cache_waits > 0
    assert stats.shared_pool_leases > 0
    assert stats.coalesced_batches > 0


def test_single_flight_without_pool_sharing() -> None:
    """With pools off, queries overlap in time and dedup via waits."""
    seed = fresh_wsmed().sql(QUERY1_SQL, options=PARALLEL)

    engine = sharing_engine(pools=False)
    results = engine.sql_many([QUERY1_SQL] * 4, options=PARALLEL)
    broker_calls = engine.broker.total_calls()
    stats = engine.stats()
    engine.close()

    for result in results:
        assert sorted(result.rows) == sorted(seed.rows)
    assert broker_calls <= seed.total_calls + 16
    assert stats.shared_cache_waits > 0  # truly concurrent single-flight
    assert stats.shared_pool_leases == 0
    # Per-query attribution adds up without double counting: every
    # shared hit/wait was a per-process miss the shared tier absorbed.
    attributed = sum(
        r.cache_stats.shared_hits + r.cache_stats.shared_waits for r in results
    )
    assert attributed == stats.shared_cache_hits + stats.shared_cache_waits


def test_asyncio_kernel_sharing_parity() -> None:
    seed = fresh_wsmed().sql(QUERY1_SQL, options=PARALLEL)

    engine = QueryEngine(
        fresh_wsmed(),
        kernel=AsyncioKernel(resident=True, time_scale=0.0005),
        share=ShareConfig(enabled=True),
    )
    results = engine.sql_many([QUERY1_SQL] * 3, options=PARALLEL)
    broker_calls = engine.broker.total_calls()
    engine.close()

    for result in results:
        assert sorted(result.rows) == sorted(seed.rows)
    # Real concurrency is racy, but sharing must still dedup most work.
    assert broker_calls < 3 * seed.total_calls


# -- fault isolation ------------------------------------------------------------


def test_failed_shared_call_does_not_poison_waiters() -> None:
    """A leader's fault must not become its waiters' result.

    Pools off so the four queries genuinely overlap: their identical
    calls collapse into single-flight groups whose leaders sometimes
    draw a broker-level :class:`ServiceFault`.  Waiters retry instead of
    inheriting the fault (unlike the per-process cache, whose collapsed
    waiters share their leader's outcome by design), so with per-call
    retries every query completes with the full result.
    """
    seed = fresh_wsmed().sql(QUERY1_SQL, options=PARALLEL)

    engine = sharing_engine(pools=False)
    engine.broker.fault_rate = 0.05  # deterministic: seeded broker RNG
    results = engine.sql_many([QUERY1_SQL] * 4, options=PARALLEL.replace(retries=3))
    stats = engine.stats()
    engine.close()

    assert stats.shared_cache_failures > 0  # leaders did fail...
    assert stats.shared_cache_waits > 0  # ...while others were parked
    for result in results:  # ...yet everyone got the right answer
        assert sorted(result.rows) == sorted(seed.rows)


# -- mid-query invalidation ------------------------------------------------------


def test_replace_mid_query_condemns_shared_trees() -> None:
    """A definition replaced while leased must not leak a stale tree.

    Two overlapping queries share one warm tree (the second waits for
    the lease).  Mid-flight, the WSDL of ``GetPlacesWithin`` is
    re-imported — the replace listener fires, condemning the leased
    pool and dropping the operation's shared-cache entries.  Both
    in-flight queries finish on the trees they started with; afterwards
    nothing stale is leasable, and that includes the second query's
    tree, which was *compiled* before the replacement but *built* after
    the condemn sweep (the registry's epoch guard catches it even
    though its structural fingerprint matches recompiled plans).
    """
    wsmed = fresh_wsmed()
    engine = sharing_engine(wsmed)
    kernel = engine.kernel
    seed = fresh_wsmed().sql(QUERY1_SQL, options=PARALLEL)

    async def replace_mid_flight():
        await kernel.sleep(0.3)
        uri, _, _ = wsmed.catalog.operation_of("GetPlacesWithin")
        wsmed.import_wsdl(uri)

    async def scenario():
        return await kernel.gather(
            replace_mid_flight(),
            engine._admitted(QUERY1_SQL, PARALLEL),
            engine._admitted(QUERY1_SQL, PARALLEL),
        )

    _, first, second = kernel.run(scenario())
    stats = engine.stats()

    assert sorted(first.rows) == sorted(seed.rows)
    assert sorted(second.rows) == sorted(seed.rows)
    assert stats.pools_condemned >= 2  # the leased tree + the stale build
    assert stats.shared_cache_invalidations > 0
    # Neither tree survived into the free lists: the replacement doomed
    # the leased one at release and the epoch guard doomed the other.
    assert stats.idle_pools == 0

    # A fresh query recompiles and cold-starts — nothing stale is reused.
    after = engine.sql(QUERY1_SQL, options=PARALLEL)
    assert sorted(after.rows) == sorted(seed.rows)
    assert after.trace.count("spawn") == 25
    engine.close()
