"""Exact seed fingerprints for the paper's Fig 1/Fig 3 queries.

``test_paper_numbers`` pins the headline numbers loosely (they must match
the *paper*); this module pins them **exactly** (they must match the
*seed implementation*, to the last float bit).  Any change to the default
execution path — including additions that are supposed to be off or
side-effect-free by default, like LIMIT pushdown (no LIMIT appears in
either query) or the unified QueryOptions surface — shows up here first.

If a PR moves these numbers on purpose, that is a calibration change and
the new values must be justified in the PR, not silently re-pinned.
"""

from collections import Counter

from repro import QUERY1_SQL, QUERY2_SQL, QueryEngine, QueryOptions, WSMED
from repro.algebra.explain import render_plan

FIG1_CENTRAL_ELAPSED = 245.18603205739868
FIG1_CENTRAL_CALLS = 311
FIG1_BEST_ELAPSED = 59.14651353400834
FIG3_CENTRAL_ELAPSED = 2407.4913388248724
FIG3_CENTRAL_CALLS = 5001


def _paper_system() -> WSMED:
    system = WSMED(profile="paper")
    system.import_all()
    return system


def test_fig1_fingerprint_is_bit_identical() -> None:
    system = _paper_system()
    central = system.sql(QUERY1_SQL, options=QueryOptions(mode="central"))
    assert central.elapsed == FIG1_CENTRAL_ELAPSED
    assert central.total_calls == FIG1_CENTRAL_CALLS
    assert len(central.rows) == 360
    best = system.sql(
        QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=[5, 4])
    )
    assert best.elapsed == FIG1_BEST_ELAPSED
    assert best.total_calls == FIG1_CENTRAL_CALLS


def test_fig3_fingerprint_is_bit_identical() -> None:
    system = _paper_system()
    central = system.sql(QUERY2_SQL, options=QueryOptions(mode="central"))
    assert central.elapsed == FIG3_CENTRAL_ELAPSED
    assert central.total_calls == FIG3_CENTRAL_CALLS
    assert central.rows == [("CO", "80840")]


# -- off-by-default layers leave the seed path untouched ----------------------

PARALLEL = QueryOptions(mode="parallel", fanouts=[5, 4])


def _norm(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _norm(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_norm(v) for v in value)
    return value


def _bag(result) -> tuple[Counter, Counter]:
    """Rows plus the call trace, both as order-insensitive multisets."""
    rows = Counter(tuple(row) for row in result.rows)
    trace = Counter((event.kind, _norm(event.data)) for event in result.trace)
    return rows, trace


def _engine_vs_seed() -> tuple[tuple, tuple]:
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    seed = wsmed.sql(QUERY1_SQL, options=PARALLEL)
    engine = QueryEngine(wsmed)
    served = engine.sql(QUERY1_SQL, options=PARALLEL)
    engine.close()
    # Fingerprint both only after both ran: trace events hold live dicts
    # that later queries on the same WSMED mutate in place.
    return _bag(served), _bag(seed)


def test_optimize_off_results_identical_to_seed_path() -> None:
    """The default ``optimize="heuristic"`` compile path is seed-identical:
    the rendered plan tree does not change when the heuristic is named
    explicitly, and the engine returns the seed's rows and call trace."""
    wsmed = WSMED(profile="fast")
    wsmed.import_all()
    plan_default = render_plan(wsmed.plan(QUERY1_SQL, options=PARALLEL))
    plan_explicit = render_plan(
        wsmed.plan(QUERY1_SQL, options=PARALLEL.replace(optimize="heuristic"))
    )
    assert plan_default == plan_explicit, "explicit heuristic differs"
    served, seed = _engine_vs_seed()
    assert served == seed, "default optimize changed results"


def test_admission_off_results_identical_to_seed_path() -> None:
    """The default ``admission="static"`` engine does not perturb query
    results or call traces relative to the one-shot seed path."""
    served, seed = _engine_vs_seed()
    assert served == seed, "static admission changed results"
