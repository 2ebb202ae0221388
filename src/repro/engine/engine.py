"""The resident query engine: one kernel, many queries.

``WSMED.sql`` is one-shot: every call builds a fresh kernel, binds a
fresh broker, compiles the query from scratch, spawns a new tree of
child query processes, runs, and tears everything down.  That is the
paper's experimental setup, but a mediator serving traffic pays the
compile and cold-start cost on every query.  :class:`QueryEngine` makes
the expensive parts resident:

* **one kernel, one broker** — bound at construction; the simulated or
  real-time world persists across queries, so server-side state
  (endpoint semaphores, the seeded jitter stream) behaves like one
  long-running service substrate;
* **compiled-plan cache** — :class:`~repro.engine.plan_cache.PlanCache`
  keyed by ``(sql, mode, fanouts, adaptation, name)``, invalidated when
  ``import_wsdl``/``register_helping_function`` replaces a definition;
* **warm child-pool reuse** — coordinator-level operator pools are
  leased from / released to a :class:`~repro.engine.pools.PoolRegistry`
  instead of being spawned and shut down per query, so a warm query
  ships zero plan functions and spawns zero processes (and its children
  keep their call caches);
* **concurrent admission** — :meth:`sql_many` multiplexes N queries on
  the one kernel behind a bounded admission semaphore; per-query
  isolation comes from a fresh :class:`~repro.util.trace.TraceLog` and
  :class:`~repro.services.broker.CallRecorder` per query plus per-query
  cache counters, so concurrent :class:`QueryResult`s never share
  statistics.

A cold first query at concurrency 1 replays the seed timeline exactly —
same rows, same trace events, same message counts; the only difference
is that process shutdown happens at :meth:`close` instead of at the end
of the query (so ``elapsed`` excludes teardown).
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as _replace

from repro.algebra.explain import render_plan
from repro.algebra.interpreter import ExecutionContext
from repro.algebra.plan import AdaptationParams
from repro.cache import CacheConfig, CacheStats, CallCache, aggregate_stats
from repro.engine.admission import AdmissionConfig, AdmissionController
from repro.engine.plan_cache import CompiledPlan, PlanCache, plan_dependencies
from repro.engine.pools import PoolRegistry
from repro.engine.shared import ShareConfig, SharedCallCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_RECORDER, NullRecorder
from repro.parallel.batching import message_stats_from_trace
from repro.parallel.executor import ParallelExecutor
from repro.parallel.faults import fault_stats_from_trace
from repro.parallel.tree import tree_stats_from_trace
from repro.runtime.base import Kernel
from repro.runtime.simulated import SimKernel
from repro.services.broker import CallRecorder
from repro.util.errors import ReproError
from repro.wsmed.options import ONE_SHOT_ONLY, QueryOptions, resolve_options
from repro.wsmed.results import QueryResult
from repro.wsmed.system import WSMED, ExecutionMode


class EngineClosed(ReproError):
    """The engine was closed; no further queries are admitted.

    A subclass of :class:`ReproError` so existing ``except ReproError``
    handlers keep working; the HTTP front end maps it to 503 (versus 400
    for ordinary query errors)."""


@dataclass
class EngineStats:
    """A point-in-time snapshot of the engine's resident state."""

    queries: int
    active: int
    peak_concurrency: int
    max_concurrency: int
    plan_cache_hits: int
    plan_cache_misses: int
    plan_cache_evictions: int
    plan_cache_invalidations: int
    plan_cache_entries: int
    warm_leases: int
    cold_starts: int
    pools_condemned: int
    pools_trimmed: int
    pools_closed: int
    idle_pools: int
    resident_processes: int
    # Multi-query sharing (all zero unless the engine was built with an
    # enabled ShareConfig; see repro.engine.shared).
    sharing: bool = False
    shared_cache_hits: int = 0
    shared_cache_misses: int = 0
    shared_cache_waits: int = 0
    shared_cache_failures: int = 0
    shared_cache_entries: int = 0
    shared_cache_invalidations: int = 0
    coalesced_batches: int = 0
    batched_calls: int = 0
    pool_lease_waits: int = 0
    shared_pool_leases: int = 0
    # Capacity-aware admission (repro.engine.admission); policy stays
    # "static" unless the engine was built with admission="adaptive".
    admission_policy: str = "static"
    admission_limit: int = 0
    admission_shed: int = 0
    admission_queued: int = 0
    admission_raises: int = 0
    admission_backoffs: int = 0
    admission_baseline_p50: float = 0.0
    admission_inflation: float = 0.0
    admission_fanout_cap: int = 0
    # Cost-based optimizer feedback loop (repro.algebra.optimizer).
    reoptimizations: int = 0
    observed_operations: int = 0

    def as_dict(self) -> dict[str, object]:
        return dict(self.__dict__)

    def report(self) -> str:
        lines = [
            f"queries executed: {self.queries} "
            f"(active {self.active}, peak concurrency {self.peak_concurrency}"
            f"/{self.max_concurrency})",
            f"plan cache: {self.plan_cache_hits} hits, "
            f"{self.plan_cache_misses} misses, "
            f"{self.plan_cache_entries} cached "
            f"({self.plan_cache_evictions} evicted, "
            f"{self.plan_cache_invalidations} invalidated)",
            f"pools: {self.warm_leases} warm leases, "
            f"{self.cold_starts} cold starts, {self.idle_pools} idle "
            f"({self.pools_condemned} condemned, {self.pools_trimmed} trimmed, "
            f"{self.pools_closed} closed)",
            f"resident query processes: {self.resident_processes}",
        ]
        if self.admission_policy != "static":
            cap = (
                f"fanout cap {self.admission_fanout_cap}"
                if self.admission_fanout_cap
                else "no fanout cap"
            )
            lines.append(
                f"admission: {self.admission_policy} limit "
                f"{self.admission_limit}/{self.max_concurrency}, "
                f"{self.admission_shed} shed, {self.admission_queued} queued "
                f"({self.admission_raises} raises, "
                f"{self.admission_backoffs} backoffs, p50 inflation "
                f"{self.admission_inflation:.2f}x, {cap})"
            )
        if self.reoptimizations or self.observed_operations:
            lines.append(
                f"cost optimizer: {self.observed_operations} operations "
                f"observed, {self.reoptimizations} plans re-optimized"
            )
        if self.sharing:
            lines.append(self.share_report())
        return "\n".join(lines)

    def share_report(self) -> str:
        """The multi-query sharing section (CLI ``\\stats share``)."""
        if not self.sharing:
            return "sharing: off (construct the engine with share=ShareConfig(enabled=True))"
        lookups = (
            self.shared_cache_hits
            + self.shared_cache_waits
            + self.shared_cache_misses
        )
        rate = (
            (self.shared_cache_hits + self.shared_cache_waits) / lookups
            if lookups
            else 0.0
        )
        lines = [
            f"shared cache: {self.shared_cache_hits} hits, "
            f"{self.shared_cache_waits} single-flight waits, "
            f"{self.shared_cache_misses} misses ({rate:.0%} hit rate, "
            f"{self.shared_cache_entries} entries, "
            f"{self.shared_cache_failures} failed leaders, "
            f"{self.shared_cache_invalidations} invalidated)",
            f"cross-query batching: {self.coalesced_batches} coalesced "
            f"batches carrying {self.batched_calls} calls",
            f"shared pools: {self.shared_pool_leases} concurrent leases "
            f"({self.pool_lease_waits} waits for a busy tree)",
        ]
        return "\n".join(lines)


class QueryEngine:
    """Resident, multi-query execution service on top of :class:`WSMED`.

    ::

        engine = QueryEngine(wsmed)
        parallel = QueryOptions(mode="parallel", fanouts=[5, 4])
        first = engine.sql(QUERY1_SQL, options=parallel)
        warm = engine.sql(QUERY1_SQL, options=parallel)
        batch = engine.sql_many([QUERY1_SQL] * 16, options=parallel)
        engine.close()

    The kernel must be *resident* (``SimKernel(resident=True)``, the
    default, or ``AsyncioKernel(resident=True)``): a one-shot kernel
    closes every parked task when ``run`` returns, which would kill the
    warm child processes between queries.
    """

    def __init__(
        self,
        wsmed: WSMED,
        *,
        kernel: Kernel | None = None,
        max_concurrency: int = 8,
        plan_cache_size: int = 64,
        max_idle_pools: int = 32,
        fault_rate: float = 0.0,
        share: ShareConfig | None = None,
        admission: str | AdmissionConfig = "static",
        drift_threshold: float = 2.0,
    ) -> None:
        if max_concurrency < 1:
            raise ReproError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        self.wsmed = wsmed
        self.kernel = kernel if kernel is not None else SimKernel(resident=True)
        if not getattr(self.kernel, "resident", False):
            raise ReproError(
                "QueryEngine needs a resident kernel "
                "(SimKernel(resident=True) or AsyncioKernel(resident=True)); "
                "a one-shot kernel would kill warm child processes between "
                "queries"
            )
        self.broker = wsmed.registry.bind(
            self.kernel, seed=wsmed.seed, fault_rate=fault_rate
        )
        self._fault_rate = fault_rate
        self.max_concurrency = max_concurrency
        self.plan_cache = PlanCache(plan_cache_size)
        self.pool_registry = PoolRegistry(max_idle_pools)
        # Multi-query sharing tiers (repro.engine.shared): one shared
        # call cache + single-flight + batching object for the engine's
        # lifetime, and (optionally) shared pool leases.  `None` — the
        # default — keeps every query's call path seed-identical.
        self.share = share if share is not None and share.enabled else None
        self.shared = (
            SharedCallCache(self.kernel, self.share)
            if self.share is not None
            else None
        )
        if self.share is not None and self.share.pools:
            self.pool_registry.share_pools = True
        # Admission policy.  "static" (the default) is the seed path: a
        # plain semaphore of max_concurrency permits.  "adaptive" (or an
        # AdmissionConfig) swaps in the capacity-probing controller of
        # repro.engine.admission — weighted fair tenant queues, deadline
        # shedding, AFF fanout caps — with max_concurrency as its ceiling.
        if isinstance(admission, AdmissionConfig):
            admission_config: AdmissionConfig | None = admission
        elif admission == "adaptive":
            admission_config = AdmissionConfig()
        elif admission == "static":
            admission_config = None
        else:
            raise ReproError(
                f'admission must be "static", "adaptive" or an '
                f"AdmissionConfig, got {admission!r}"
            )
        self.admission = (
            AdmissionController(
                self.kernel,
                admission_config,
                ceiling=max_concurrency,
                broker=self.broker,
            )
            if admission_config is not None
            else None
        )
        self._admission = None  # static semaphore, created lazily inside the kernel
        self._admission_key: tuple[int, int] | None = None
        self._kernel_generation = getattr(self.kernel, "generation", 0)
        # One process-name counter for the engine's lifetime: the first
        # query numbers its children q1..qN exactly like the seed, and
        # every later (or concurrent) query continues the sequence, so
        # names are unique across the whole engine.
        self._name_counter = [0]
        # Warm coordinator-side caches, pooled per config: a query leases
        # one for its q0 process and returns it at the end, so repeated
        # queries keep coordinator-level memoized calls too (children
        # keep theirs via pool reuse).
        self._coordinator_caches: dict[CacheConfig, list[CallCache]] = {}
        self._queries = 0
        self._active = 0
        self._peak_active = 0
        self._closed = False
        # Live per-operation statistics for the cost-based optimizer's
        # feedback loop: operation -> [calls, rows, total seconds],
        # aggregated from every query's CallRecorder.  The same numbers
        # are published on `metrics` (MetricsRegistry) for inspection.
        self.drift_threshold = drift_threshold
        self._observed_totals: dict[str, list[float]] = {}
        self._reoptimizations = 0
        self.metrics = MetricsRegistry()
        wsmed.add_replace_listener(self._on_function_replaced)

    # -- invalidation ------------------------------------------------------------

    def _on_function_replaced(self, name: str) -> None:
        """A definition changed: stale plans, pools and shared results go.

        Fires synchronously from ``import_wsdl`` /
        ``register_helping_function`` — possibly *mid-query* under
        concurrent admission: leased pools are flagged and doomed at
        release (the running query finishes on its consistent tree), and
        memoized shared results of the replaced operation are dropped so
        no later call observes the old provider.
        """
        self.plan_cache.invalidate(name)
        self.pool_registry.condemn(name)
        if self.shared is not None:
            self.shared.invalidate_operation(name)
        # A replaced endpoint may have a different performance profile;
        # observations of the old one must not steer the optimizer.
        for operation in list(self._observed_totals):
            if operation.lower() == name:
                del self._observed_totals[operation]

    # -- query execution ------------------------------------------------------------

    #: Options the resident engine rejects: it owns its kernel and broker
    #: (``kernel``/``fault_rate``) and feeds measured statistics into the
    #: cost model itself (``observed``).
    _REJECTED_OPTIONS = frozenset(ONE_SHOT_ONLY | {"observed"})

    def sql(
        self,
        sql_text: str,
        *,
        options: QueryOptions | None = None,
    ) -> QueryResult:
        """Run one query to completion on the resident kernel.

        Accepts a :class:`~repro.wsmed.options.QueryOptions` covering the
        planning/execution fields of :meth:`WSMED.sql` (``mode``,
        ``fanouts``, ``adaptation``, ``retries``, ``cache``,
        ``process_costs``, ``on_error``, ``faults``, ``name``, ``obs``,
        ``optimize``, ``limit_pushdown``) — but not ``kernel`` /
        ``fault_rate`` / ``observed``, which are engine-level here.
        Two admission fields ride along: ``tenant`` (fair-queue identity,
        default ``"default"``) and ``deadline_ms`` (model milliseconds;
        under adaptive admission a query whose deadline the measured
        service rate cannot meet raises
        :class:`~repro.engine.admission.AdmissionRejected` up front).
        Both are accepted and ignored under static admission.  With
        ``obs`` a :class:`repro.obs.TraceRecorder`, compile spans appear
        only on plan-cache misses (a warm hit skips compilation
        entirely).
        """
        opts = self._resolve(options, "QueryEngine.sql")
        return self.kernel.run(self._admitted(sql_text, opts))

    async def sql_async(
        self,
        sql_text: str,
        *,
        options: QueryOptions | None = None,
    ) -> QueryResult:
        """Coroutine form of :meth:`sql` for callers already running
        *inside* the resident kernel (e.g. the HTTP front end in
        :mod:`repro.serve`, whose accept loop owns ``kernel.run``)."""
        opts = self._resolve(options, "QueryEngine.sql_async")
        return await self._admitted(sql_text, opts)

    def sql_many(
        self,
        queries,
        *,
        return_exceptions: bool = False,
        options: QueryOptions | None = None,
    ) -> list[QueryResult]:
        """Run several queries concurrently on the one kernel.

        ``queries`` is a list of SQL strings, or ``(sql, overrides)``
        pairs where ``overrides`` is a :class:`QueryOptions` replacing
        the batch-wide ``options`` for that query (build it with
        ``options.replace(...)`` to change a few fields).  Overrides pass
        the same surface check as ``options``; a rejected one fails its
        own query.  All queries are admitted through the engine's
        admission policy (the static semaphore by default, the adaptive
        controller when the engine was built with ``admission=``) and
        results come back in input order.  Per-query ``tenant`` /
        ``deadline_ms`` overrides thread through to the admission queue.

        With ``return_exceptions=True`` a failed query — most usefully an
        :class:`AdmissionRejected` shed by the deadline policy — comes
        back as the exception object in its slot instead of destroying
        the whole batch.
        """
        base = self._resolve(options, "QueryEngine.sql_many")
        coros = []
        for query in queries:
            if isinstance(query, str):
                coros.append(self._admitted(query, base))
            else:
                sql_text, overrides = query
                coros.append(self._overridden(sql_text, overrides))
        if return_exceptions:
            coros = [self._shielded(coro) for coro in coros]
        return self.kernel.run(self.kernel.gather(*coros))

    def _resolve(self, options: QueryOptions | None, where: str) -> QueryOptions:
        return resolve_options(options, where=where, rejected=self._REJECTED_OPTIONS)

    async def _overridden(self, sql_text: str, overrides: QueryOptions) -> QueryResult:
        opts = self._resolve(overrides, "QueryEngine.sql_many override")
        return await self._admitted(sql_text, opts)

    @staticmethod
    async def _shielded(coro):
        try:
            return await coro
        except Exception as exc:  # noqa: BLE001 — handed to the caller
            return exc

    def _check_generation(self) -> None:
        """Drop kernel-bound state after a ``Kernel.shutdown``.

        A shutdown kills every task parked in the kernel — warm child
        trees, broker queues — and invalidates primitives created in the
        old run.  An engine reused on the same (restarted) kernel must
        therefore cold-start: forget warm pools (their processes are
        dead), coordinator caches (their single-flight events are dead),
        and the admission semaphore (awaiting it would raise or hang).
        """
        generation = getattr(self.kernel, "generation", 0)
        if generation == self._kernel_generation:
            return
        self._kernel_generation = generation
        self._admission = None
        self._admission_key = None
        self.pool_registry.discard_all()
        self._coordinator_caches.clear()

    async def _admitted(
        self, sql_text: str, opts: QueryOptions
    ) -> QueryResult:
        if self._closed:
            raise EngineClosed("QueryEngine is closed")
        self._check_generation()
        if self.admission is not None:
            ticket = await self.admission.admit(
                opts.tenant, deadline_ms=opts.deadline_ms
            )
            self._active += 1
            self._peak_active = max(self._peak_active, self._active)
            started = self.kernel.now()
            try:
                return await self._execute(sql_text, opts)
            finally:
                self._active -= 1
                self.admission.release(ticket, self.kernel.now() - started)
        key = (self._kernel_generation, self.max_concurrency)
        if self._admission is None or self._admission_key != key:
            self._admission = self.kernel.semaphore(self.max_concurrency)
            self._admission_key = key
        await self._admission.acquire()
        self._active += 1
        self._peak_active = max(self._peak_active, self._active)
        try:
            return await self._execute(sql_text, opts)
        finally:
            self._active -= 1
            self._admission.release()

    async def _execute(
        self, sql_text: str, opts: QueryOptions
    ) -> QueryResult:
        fanouts = opts.fanouts
        adaptation = opts.adaptation
        name = opts.name
        cache = opts.cache
        obs = opts.obs
        optimize = opts.optimize
        await self.pool_registry.drain()
        mode = ExecutionMode.of(opts.mode)
        if self.admission is not None and mode is ExecutionMode.ADAPTIVE:
            # AFF fanout cap from measured broker queue contention: a
            # saturated endpoint only queues deeper under wider fanout,
            # so clamp the adaptation ceiling.  AdaptationParams is part
            # of the plan-cache fingerprint, so capped and uncapped
            # compilations never share an entry.
            cap = self.admission.fanout_cap()
            if cap is not None:
                params = adaptation if adaptation is not None else AdaptationParams()
                if params.max_fanout > cap:
                    adaptation = _replace(
                        params, max_fanout=max(cap, params.init_fanout)
                    )
        recorder = obs if obs is not None else NULL_RECORDER
        compiled = self._compiled(
            sql_text, mode, fanouts, adaptation, name, obs=recorder,
            optimize=optimize,
        )
        effective_costs = opts.process_costs or self.wsmed.process_costs
        if opts.on_error is not None:
            effective_costs = _replace(effective_costs, on_error=opts.on_error)
        if opts.faults is not None:
            effective_costs = _replace(effective_costs, faults=opts.faults)
        ctx = ExecutionContext(
            kernel=self.kernel,
            broker=self.broker,
            functions=self.wsmed.functions,
            retries=opts.retries,
            call_recorder=CallRecorder(),
            _name_counter=self._name_counter,
            shared=self.shared,
            limit_pushdown=opts.limit_pushdown,
        )
        config = cache if cache is not None else self.wsmed.cache_config
        leased_cache = self._lease_coordinator_cache(ctx, config)
        attach_placement = getattr(self.kernel, "attach_placement", None)
        if attach_placement is not None:
            # Multi-process kernel: pool children land in OS workers; the
            # PoolRegistry lease cycle then keeps warm *processes* across
            # queries (rebind reaches into the workers).
            attach_placement(
                ctx,
                functions=self.wsmed.functions,
                registry=self.wsmed.registry,
                seed=self.wsmed.seed,
                fault_rate=self._fault_rate,
            )
        executor = ParallelExecutor(
            ctx, effective_costs, pool_registry=self.pool_registry
        )
        query_span = -1
        if recorder.enabled:
            query_span = recorder.start(
                f"query:{name}",
                category="query",
                process=ctx.process_name,
                at=self.kernel.now(),
                mode=mode.value,
            )
            ctx.obs = recorder
            ctx.obs_span = query_span
            # Concurrent traced queries are last-writer-wins on the
            # kernel-level hook: task spans attach to whichever traced
            # query spawned most recently.  Trace one query at a time for
            # an unambiguous kernel timeline.
            self.kernel.obs = recorder
        started = self.kernel.now()
        try:
            rows = await executor.execute(compiled.plan)
        except BaseException:
            if recorder.enabled:
                if self.kernel.obs is recorder:
                    self.kernel.obs = None
                recorder.finish(query_span, at=self.kernel.now(), outcome="error")
            raise
        finally:
            if leased_cache is not None:
                self._coordinator_caches[config].append(leased_cache)
        elapsed = self.kernel.now() - started
        if recorder.enabled:
            if self.kernel.obs is recorder:
                self.kernel.obs = None
            recorder.finish(query_span, at=self.kernel.now(), rows=len(rows))
        self._queries += 1
        call_recorder = ctx.call_recorder
        self._absorb_observations(call_recorder.all_stats())
        if compiled.optimize == "cost":
            self._maybe_reoptimize(
                sql_text, mode, fanouts, adaptation, name, compiled
            )
        return QueryResult(
            columns=compiled.plan.schema,
            rows=rows,
            elapsed=elapsed,
            mode=mode.value,
            total_calls=call_recorder.total_calls(),
            call_stats=call_recorder.all_stats(),
            trace=ctx.trace,
            tree=tree_stats_from_trace(ctx.trace),
            plan_text=render_plan(compiled.plan),
            cache_stats=(
                aggregate_stats(
                    ctx.cache_registry,
                    trace=ctx.trace if self.shared is not None else None,
                )
                if ctx.cache_registry or self.shared is not None
                else None
            ),
            message_stats=message_stats_from_trace(ctx.trace),
            fault_stats=fault_stats_from_trace(ctx.trace),
            spans=recorder.store if recorder.enabled else None,
        )

    def _compiled(
        self,
        sql_text: str,
        mode: ExecutionMode,
        fanouts: list[int] | None,
        adaptation: AdaptationParams | None,
        name: str,
        obs: NullRecorder = NULL_RECORDER,
        optimize: str = "heuristic",
    ) -> CompiledPlan:
        if mode is ExecutionMode.ADAPTIVE:
            # Normalize before fingerprinting: None and the default
            # params compile to the same plan and must share an entry.
            adaptation = adaptation or AdaptationParams()
        key = PlanCache.fingerprint(
            sql_text, mode, fanouts, adaptation, name, optimize
        )
        compiled = self.plan_cache.get(key)
        if compiled is None:
            compiled = self._compile_entry(
                sql_text, mode, fanouts, adaptation, name, optimize, obs=obs
            )
            self.plan_cache.put(key, compiled)
        return compiled

    def _compile_entry(
        self,
        sql_text: str,
        mode: ExecutionMode,
        fanouts: list[int] | None,
        adaptation: AdaptationParams | None,
        name: str,
        optimize: str,
        obs: NullRecorder = NULL_RECORDER,
    ) -> CompiledPlan:
        _, plan, report = self.wsmed._compile(
            sql_text,
            mode=mode,
            fanouts=fanouts,
            adaptation=adaptation,
            name=name,
            obs=obs,
            optimize=optimize,
            observed=(self.observed_stats() or None) if optimize == "cost" else None,
        )
        # ``report`` is None for heuristic compilations.
        return CompiledPlan(
            plan=plan,
            dependencies=plan_dependencies(plan),
            optimize=optimize,
            assumptions=dict(report.assumptions) if report else None,
            report=report,
        )

    # -- live-stats feedback ----------------------------------------------------

    def _absorb_observations(self, stats) -> None:
        """Fold one query's per-operation CallStats into the running
        totals (and the engine's MetricsRegistry)."""
        for operation, call_stats in stats.items():
            if not call_stats.calls:
                continue
            totals = self._observed_totals.setdefault(
                operation, [0.0, 0.0, 0.0]
            )
            totals[0] += call_stats.calls
            totals[1] += call_stats.rows
            totals[2] += call_stats.total_time.total
            labels = {"operation": operation}
            self.metrics.counter("engine.calls", labels).inc(call_stats.calls)
            self.metrics.counter("engine.rows", labels).inc(call_stats.rows)
            self.metrics.counter("engine.call_seconds", labels).inc(
                call_stats.total_time.total
            )

    def observed_stats(self) -> dict[str, tuple[float, float]]:
        """Measured per-operation ``(mean call seconds, mean fanout)``."""
        observed = {}
        for operation, (calls, rows, seconds) in self._observed_totals.items():
            if calls > 0:
                observed[operation] = (seconds / calls, rows / calls)
        return observed

    def _maybe_reoptimize(
        self,
        sql_text: str,
        mode: ExecutionMode,
        fanouts: list[int] | None,
        adaptation: AdaptationParams | None,
        name: str,
        compiled: CompiledPlan,
    ) -> None:
        """Re-optimize a cached cost-based plan when live stats drift.

        Compares the measured per-operation call cost and fanout against
        the assumptions the cached plan was costed with; past
        ``drift_threshold`` (a ratio, either direction) the entry is
        recompiled with the observed statistics so the *next* execution
        runs the improved plan.  Replacing the cache entry recompiles the
        plan with fresh node ids, so its warm pools cold-start once —
        the same trade the condemn/invalidation machinery already makes.
        """
        assumptions = compiled.assumptions
        if not assumptions:
            return
        observed = self.observed_stats()
        drifted = False
        for operation, (assumed_cost, assumed_fanout) in assumptions.items():
            measured = observed.get(operation)
            if measured is None:
                continue
            for assumed, actual in zip((assumed_cost, assumed_fanout), measured):
                if assumed <= 0.0 or actual <= 0.0:
                    continue
                ratio = actual / assumed
                if ratio > self.drift_threshold or ratio < 1.0 / self.drift_threshold:
                    drifted = True
        if not drifted:
            return
        key = PlanCache.fingerprint(
            sql_text, mode, fanouts, adaptation, name, "cost"
        )
        fresh = self._compile_entry(
            sql_text, mode, fanouts, adaptation, name, "cost"
        )
        self.plan_cache.put(key, fresh)
        self._reoptimizations += 1
        self.metrics.counter("engine.reoptimizations").inc()

    def _lease_coordinator_cache(
        self, ctx: ExecutionContext, config: CacheConfig | None
    ) -> CallCache | None:
        """Attach a warm (or fresh) coordinator cache to a query's context.

        Pooled per config so concurrent queries never share one cache
        object — sharing would let one query reset another's counters.
        """
        if config is None or not config.enabled:
            return None
        bucket = self._coordinator_caches.setdefault(config, [])
        if bucket:
            cache = bucket.pop()
            cache.stats = CacheStats()
        else:
            cache = CallCache(self.kernel, config, name=ctx.process_name)
        ctx.cache = cache
        ctx.cache_registry.append(cache)
        return cache

    # -- introspection ----------------------------------------------------------------

    def stats(self) -> EngineStats:
        plan_stats = self.plan_cache.stats
        pool_stats = self.pool_registry.stats
        shared_stats = self.shared.stats if self.shared is not None else None
        admission_stats = (
            self.admission.stats() if self.admission is not None else None
        )
        return EngineStats(
            queries=self._queries,
            active=self._active,
            peak_concurrency=self._peak_active,
            max_concurrency=self.max_concurrency,
            plan_cache_hits=plan_stats.hits,
            plan_cache_misses=plan_stats.misses,
            plan_cache_evictions=plan_stats.evictions,
            plan_cache_invalidations=plan_stats.invalidations,
            plan_cache_entries=len(self.plan_cache),
            warm_leases=pool_stats.warm_leases,
            cold_starts=pool_stats.cold_starts,
            pools_condemned=pool_stats.condemned,
            pools_trimmed=pool_stats.trimmed,
            pools_closed=pool_stats.closed,
            idle_pools=self.pool_registry.idle_pools(),
            resident_processes=self.pool_registry.resident_processes(),
            sharing=self.shared is not None,
            shared_cache_hits=shared_stats.hits if shared_stats else 0,
            shared_cache_misses=shared_stats.misses if shared_stats else 0,
            shared_cache_waits=shared_stats.waits if shared_stats else 0,
            shared_cache_failures=shared_stats.failures if shared_stats else 0,
            shared_cache_entries=len(self.shared) if self.shared else 0,
            shared_cache_invalidations=(
                shared_stats.invalidations if shared_stats else 0
            ),
            coalesced_batches=shared_stats.batches if shared_stats else 0,
            batched_calls=shared_stats.batched_calls if shared_stats else 0,
            pool_lease_waits=pool_stats.lease_waits,
            shared_pool_leases=pool_stats.shared_leases,
            reoptimizations=self._reoptimizations,
            observed_operations=len(self._observed_totals),
            **(
                {
                    "admission_policy": admission_stats.policy,
                    "admission_limit": admission_stats.limit,
                    "admission_shed": admission_stats.shed,
                    "admission_queued": admission_stats.queued,
                    "admission_raises": admission_stats.raises,
                    "admission_backoffs": admission_stats.backoffs,
                    "admission_baseline_p50": admission_stats.baseline_p50,
                    "admission_inflation": admission_stats.inflation,
                    "admission_fanout_cap": admission_stats.fanout_cap,
                }
                if admission_stats is not None
                else {}
            ),
        )

    # -- shutdown ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down every warm pool, then the resident kernel.

        Idempotent.  ``run_until_completion`` semantics mean no query is
        in flight when this can run, so "draining" is simply closing the
        idle trees; their ``process_exit`` trace events land in the
        trace of the last query each tree served, exactly where the
        seed's per-query teardown would have put them.
        """
        if self._closed:
            return
        self._closed = True
        self.kernel.run(self.pool_registry.close_all())
        self.kernel.shutdown()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
