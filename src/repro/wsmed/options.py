"""The unified per-query options object.

Every per-query planning and execution knob lives in one frozen
dataclass, :class:`QueryOptions`, accepted by :meth:`WSMED.sql` /
:meth:`WSMED.plan` / :meth:`WSMED.explain`, by
:meth:`~repro.engine.QueryEngine.sql` / ``sql_async`` / ``sql_many``,
by the CLI, and (as a nested JSON object) by the HTTP front end's
``POST /sql``.

Some fields only make sense on one surface: ``kernel`` / ``fault_rate`` /
``observed`` are rejected by the resident engine (which owns its kernel
and feeds its own statistics), and ``tenant`` / ``deadline_ms`` are
engine-level admission knobs rejected by the one-shot :meth:`WSMED.sql`
path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.algebra.plan import AdaptationParams
from repro.cache import CacheConfig
from repro.parallel.costs import ProcessCosts
from repro.parallel.faults import FaultInjection
from repro.util.errors import PlanError


@dataclass(frozen=True)
class QueryOptions:
    """All per-query knobs; every field has the surface's old default.

    Planning:
      ``mode``           execution mode (``central``/``parallel``/``adaptive``).
      ``fanouts``        manual FF_APPLYP fanout vector (parallel mode).
      ``adaptation``     AFF_APPLYP parameters (adaptive mode).
      ``name``           query name for traces and reports.
      ``optimize``       ``"heuristic"`` (seed default) or ``"cost"``.
      ``observed``       measured (call cost, fanout) overlay for the
                         cost model (one-shot :meth:`WSMED.sql` only; the
                         resident engine feeds its own statistics).

    Execution:
      ``retries``        per-call retries of retriable service faults.
      ``cache``          per-query web-service call cache configuration.
      ``process_costs``  process cost model override (batching etc.).
      ``on_error``       pool failure policy shortcut (fail/retry/skip).
      ``faults``         fault-injection knobs.
      ``obs``            a TraceRecorder for span tracing.
      ``limit_pushdown`` let a LIMIT above FF/AFF stop dispatching calls
                         early (same rows, fewer calls; default on).

    One-shot only (:meth:`WSMED.sql`):
      ``kernel``         execution kernel (defaults to a fresh SimKernel).
      ``fault_rate``     broker-level random fault rate.

    Engine only (:class:`~repro.engine.QueryEngine`):
      ``tenant``         fair-queue admission identity.
      ``deadline_ms``    admission deadline in model milliseconds.
    """

    mode: object = "central"  # ExecutionMode | str (typed loosely: the
    # enum lives in repro.wsmed.system, which imports this module)
    fanouts: Optional[list] = None
    adaptation: Optional[AdaptationParams] = None
    retries: int = 0
    cache: Optional[CacheConfig] = None
    process_costs: Optional[ProcessCosts] = None
    on_error: Optional[str] = None
    faults: Optional[FaultInjection] = None
    name: str = "Query"
    obs: Optional[object] = None
    optimize: str = "heuristic"
    observed: Optional[dict] = None
    limit_pushdown: bool = True
    kernel: Optional[object] = None
    fault_rate: float = 0.0
    tenant: str = "default"
    deadline_ms: Optional[float] = None

    def replace(self, **overrides) -> "QueryOptions":
        """A copy with the given fields changed (field names validated)."""
        return replace(self, **overrides)


#: Fields only the one-shot WSMED.sql surface honors.
ONE_SHOT_ONLY = frozenset({"kernel", "fault_rate"})
#: Fields only the resident engine honors.
ENGINE_ONLY = frozenset({"tenant", "deadline_ms"})


def resolve_options(
    options: QueryOptions | None,
    *,
    where: str,
    rejected: frozenset = frozenset(),
) -> QueryOptions:
    """Validate ``options`` for one surface (``None`` means the defaults).

    Anything but a :class:`QueryOptions` raises
    :class:`~repro.util.errors.PlanError`, and so does a field in
    ``rejected`` — the fields this surface does not support — set to a
    non-default value.
    """
    if options is None:
        return QueryOptions()
    if not isinstance(options, QueryOptions):
        raise PlanError(
            f"{where} options must be a QueryOptions, got {type(options).__name__}"
        )
    defaults = QueryOptions()
    for name in rejected:
        if getattr(options, name) != getattr(defaults, name):
            raise PlanError(f"{where} does not support the {name!r} option")
    return options
