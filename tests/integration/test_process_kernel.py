"""The multi-process kernel: OS worker processes hosting child pools.

The contract under test is *transparency*: a query sharded across real
OS processes by :class:`~repro.runtime.multiprocess.ProcessKernel` must
produce the same bag of rows (and the same call counts) as the virtual
time kernel running the identical operator code — plus the properties
only a process fleet has: warm workers across engine queries, and
surviving a SIGKILLed worker mid-query.
"""

import os
import signal
import threading
import time

import pytest

from repro import QUERY1_SQL, QUERY2_SQL, CacheConfig, QueryEngine, QueryOptions, WSMED
from repro.runtime.multiprocess import ProcessKernel

Q1_PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])
Q2_PARALLEL = QueryOptions(mode="parallel", fanouts=[3, 2])
Q1_RETRY = Q1_PARALLEL.replace(retries=2, on_error="retry")


@pytest.fixture(scope="module")
def wsmed():
    system = WSMED(profile="fast")
    system.import_all()
    return system


@pytest.fixture(scope="module")
def sim_results(wsmed):
    return {
        "q1_parallel": wsmed.sql(QUERY1_SQL, options=Q1_PARALLEL),
        "q2_parallel": wsmed.sql(QUERY2_SQL, options=Q2_PARALLEL),
    }


def test_parallel_query1_row_identical_to_sim(wsmed, sim_results) -> None:
    with ProcessKernel(workers=2) as kernel:
        result = wsmed.sql(QUERY1_SQL, options=Q1_PARALLEL.replace(kernel=kernel))
    sim = sim_results["q1_parallel"]
    assert result.as_bag() == sim.as_bag()
    assert result.total_calls == sim.total_calls == 311
    assert result.tree.processes_spawned == 25


def test_parallel_query2_row_identical_to_sim(wsmed, sim_results) -> None:
    with ProcessKernel(workers=2) as kernel:
        result = wsmed.sql(QUERY2_SQL, options=Q2_PARALLEL.replace(kernel=kernel))
    sim = sim_results["q2_parallel"]
    assert result.as_bag() == sim.as_bag()
    assert result.total_calls == sim.total_calls


def test_adaptive_mode_on_process_kernel(wsmed) -> None:
    with ProcessKernel(workers=2) as kernel:
        result = wsmed.sql(
            QUERY1_SQL, options=QueryOptions(mode="adaptive", kernel=kernel)
        )
    assert len(result) == 360
    assert result.tree.add_stages >= 1


def test_call_cache_counters_cross_the_pipe(wsmed) -> None:
    """Child-side caches live in the workers; their counters must still
    aggregate in the coordinator's CacheStats."""
    with ProcessKernel(workers=2) as kernel:
        result = wsmed.sql(
            QUERY2_SQL,
            options=Q2_PARALLEL.replace(
                cache=CacheConfig(enabled=True), kernel=kernel
            ),
        )
    assert result.cache_stats is not None
    assert result.cache_stats.misses > 0


def test_engine_keeps_worker_processes_warm(wsmed) -> None:
    with ProcessKernel(workers=2) as kernel:
        engine = QueryEngine(wsmed, kernel=kernel)
        try:
            first = engine.sql(QUERY1_SQL, options=Q1_PARALLEL)
            pids_after_first = kernel.worker_pool.pids()
            second = engine.sql(QUERY1_SQL, options=Q1_PARALLEL)
            stats = engine.stats()
            pids_after_second = kernel.worker_pool.pids()
        finally:
            engine.close()
    assert first.as_bag() == second.as_bag()
    # Same OS processes served both queries: a warm lease re-homed the
    # child pools (RebindChild), nothing respawned.
    assert pids_after_second == pids_after_first
    assert stats.warm_leases >= 1
    assert second.tree.processes_spawned == 0


def test_killed_worker_is_respawned_and_query_completes(wsmed) -> None:
    """SIGKILL one worker mid-query: the heartbeat/EOF path respawns it,
    the pool's on_error=retry policy replaces the lost children, and the
    query still returns the right rows."""
    sim = wsmed.sql(QUERY1_SQL, options=Q1_RETRY)
    # Paper profile at time_scale=0.1 -> roughly 6 wall seconds; the kill
    # at 1.5s lands mid-execution with plenty of work left.
    paper = WSMED(profile="paper")
    paper.import_all()
    with ProcessKernel(
        workers=2, time_scale=0.1, heartbeat_interval=0.3
    ) as kernel:

        def kill_one_worker() -> None:
            pids = kernel.worker_pool.pids()
            if pids:
                os.kill(pids[0], signal.SIGKILL)

        timer = threading.Timer(1.5, kill_one_worker)
        timer.start()
        try:
            result = paper.sql(
                QUERY1_SQL,
                options=Q1_RETRY.replace(kernel=kernel),
            )
        finally:
            timer.cancel()
        respawned = kernel.worker_pool.respawned_workers
    assert result.as_bag() == sim.as_bag()
    assert respawned >= 1


def test_process_kernel_shutdown_is_idempotent(wsmed) -> None:
    kernel = ProcessKernel(workers=2)
    result = wsmed.sql(QUERY1_SQL, options=Q1_PARALLEL.replace(kernel=kernel))
    assert len(result) == 360
    kernel.shutdown()
    assert kernel.worker_pool.pids() == []
    kernel.shutdown()  # second call must be a no-op


def test_default_kernels_untouched_by_placement_hook(wsmed) -> None:
    """The placement integration is opt-in: kernels without
    attach_placement run the seed in-process path, bit for bit."""
    result = wsmed.sql(QUERY1_SQL, options=Q1_PARALLEL)
    assert result.elapsed == pytest.approx(
        wsmed.sql(QUERY1_SQL, options=Q1_PARALLEL).elapsed
    )
    assert not hasattr(result, "placement")
