"""Live-stats feedback in the resident engine.

A QueryEngine running ``optimize="cost"`` folds observed per-call
latencies and fanouts back into the cost model and re-optimizes cached
plans when the observations drift past ``drift_threshold``.  The
misdeclared optimizer world (CheckRegion's advisory fanout hint lies,
the simulated service does not) is the canonical scenario: the cold plan
trusts the hint and audits first; after one execution the engine notices
the probe's true selectivity and replans probe-first.
"""

import pytest

from benchmarks.optimizer_world import (
    ADVERSARIAL_SQL,
    ProbeProvider,
    build_optimizer_world,
    expected_adversarial_rows,
    _profile,
)
from repro import QueryEngine, QueryOptions
from repro.services.registry import ServiceCosts

COST = QueryOptions(optimize="cost")


def test_drift_triggers_reoptimization() -> None:
    engine = QueryEngine(build_optimizer_world(misdeclared=True))
    try:
        cold = engine.sql(ADVERSARIAL_SQL, options=COST)
        assert engine.stats().reoptimizations >= 1
        warm = engine.sql(ADVERSARIAL_SQL, options=COST)
        # The replanned entry probes before auditing: far fewer calls.
        assert warm.total_calls < cold.total_calls
        assert warm.as_bag() == cold.as_bag()
        rows = sorted(tuple(r) for r in warm.rows)
        assert rows == expected_adversarial_rows()
    finally:
        engine.close()


def test_accurate_hints_never_reoptimize() -> None:
    engine = QueryEngine(build_optimizer_world(misdeclared=False))
    try:
        first = engine.sql(ADVERSARIAL_SQL, options=COST)
        second = engine.sql(ADVERSARIAL_SQL, options=COST)
        stats = engine.stats()
        assert stats.reoptimizations == 0
        assert stats.observed_operations >= 3
        assert first.total_calls == second.total_calls
    finally:
        engine.close()


def test_heuristic_path_collects_no_assumptions() -> None:
    engine = QueryEngine(build_optimizer_world(misdeclared=True))
    try:
        engine.sql(ADVERSARIAL_SQL)
        engine.sql(ADVERSARIAL_SQL)
        assert engine.stats().reoptimizations == 0
    finally:
        engine.close()


def test_stats_report_mentions_optimizer_when_active() -> None:
    engine = QueryEngine(build_optimizer_world(misdeclared=True))
    try:
        engine.sql(ADVERSARIAL_SQL, options=COST)
        report = engine.stats().report()
        assert "cost optimizer:" in report
        assert "re-optimized" in report
    finally:
        engine.close()


def test_observations_dropped_when_function_replaced() -> None:
    engine = QueryEngine(build_optimizer_world())
    try:
        engine.sql(ADVERSARIAL_SQL, options=COST)
        observed = engine.observed_stats()
        assert "CheckRegion" in observed
        assert observed["CheckRegion"][1] == pytest.approx(0.25)
        engine.wsmed.import_wsdl(ProbeProvider.uri)
        assert "CheckRegion" not in engine.observed_stats()
    finally:
        engine.close()


# -- profile-cache invalidation (re-registered endpoints) --------------------


def test_profile_caches_reset_on_reimport() -> None:
    wsmed = build_optimizer_world()
    before_costs = wsmed._profile_call_costs()
    before_fanouts = wsmed._profile_fanouts()
    assert before_costs["CheckRegion"] == pytest.approx(0.05)
    assert before_fanouts["CheckRegion"] == pytest.approx(0.25)
    # The endpoint re-registers with a new cost profile: ten times the
    # service time and a different advisory fanout.
    wsmed.registry.costs["ProbeService"] = ServiceCosts(
        capacity=40,
        operations={"CheckRegion": _profile(0.4, 3.0)},
    )
    wsmed.import_wsdl(ProbeProvider.uri)
    after_costs = wsmed._profile_call_costs()
    after_fanouts = wsmed._profile_fanouts()
    assert after_costs["CheckRegion"] == pytest.approx(0.41)
    assert after_fanouts["CheckRegion"] == pytest.approx(3.0)
    # Untouched services keep their profiles.
    assert after_costs["AuditRegion"] == before_costs["AuditRegion"]


def test_profile_caches_reset_on_helping_function() -> None:
    # register_helping_function also routes through _notify_replace.
    wsmed = build_optimizer_world()
    wsmed._profile_call_costs()
    assert wsmed._call_costs is not None
    wsmed.register_helping_function(wsmed.functions.resolve("getzipcode"))
    assert wsmed._call_costs is None
    assert wsmed._fanout_hints is None
