"""The WSMED system facade.

Typical use::

    from repro import WSMED, QueryOptions

    wsmed = WSMED(profile="paper")
    wsmed.import_all()                     # read WSDLs, generate OWF views
    result = wsmed.sql(QUERY2, options=QueryOptions(mode="adaptive"))
    print(result.summary())

Execution modes (Sec. V of the paper):

``central``
    The naive sequential plan (Figs 6/10); every web-service call in
    sequence.
``parallel``
    The plan rewritten with ``FF_APPLYP`` for a manually chosen fanout
    vector (Figs 9/13) — ``fanouts=[5, 4]`` is the paper's best Query1
    tree; a 0 entry fuses levels into a flat tree (Fig 14).
``adaptive``
    ``AFF_APPLYP``: starts from a binary tree and adapts each process's
    subtree at run time (Sec. V.A).
"""

from __future__ import annotations

import enum

from repro.algebra.central import create_central_plan
from repro.algebra.cost import (
    CostModel,
    estimate_nodes,
    estimate_plan,
    model_from_observations,
)
from repro.algebra.explain import render_plan
from dataclasses import replace as _replace

from repro.algebra.interpreter import ExecutionContext
from repro.algebra.optimizer import OptimizerConfig, create_cost_based_plan
from repro.algebra.plan import (
    AdaptationParams,
    DistinctNode,
    LimitNode,
    PlanNode,
    SortNode,
    UnionNode,
)
from repro.cache import CacheConfig, aggregate_stats
from repro.calculus.expressions import CalculusQuery
from repro.calculus.generator import generate_calculus
from repro.calculus.rewrite import rewrite_unfittable
from repro.fdb.catalog import Catalog
from repro.parallel.batching import message_stats_from_trace
from repro.fdb.functions import FunctionDef, FunctionRegistry, helping_function
from repro.fdb.types import CHARSTRING, TupleType
from repro.obs.spans import NULL_RECORDER
from repro.parallel.costs import ProcessCosts
from repro.parallel.executor import ParallelExecutor
from repro.parallel.faults import fault_stats_from_trace
from repro.parallel.parallelizer import parallelize
from repro.parallel.tree import tree_stats_from_trace
from repro.runtime.simulated import SimKernel
from repro.services.registry import ServiceRegistry, build_registry
from repro.sql.ast import FuncCall, Star
from repro.sql.parser import parse_query
from repro.util.errors import CalculusError, PlanError
from repro.wsmed.options import ENGINE_ONLY, QueryOptions, resolve_options
from repro.wsmed.owf import generate_owf
from repro.wsmed.results import QueryResult
from repro.wsmed.views import render_view


class ExecutionMode(enum.Enum):
    CENTRAL = "central"
    PARALLEL = "parallel"
    ADAPTIVE = "adaptive"

    @staticmethod
    def of(value: "ExecutionMode | str") -> "ExecutionMode":
        if isinstance(value, ExecutionMode):
            return value
        try:
            return ExecutionMode(value)
        except ValueError:
            raise PlanError(
                f"unknown execution mode {value!r}; "
                "use central, parallel or adaptive"
            ) from None


def _default_costs(profile: str) -> ProcessCosts:
    costs = ProcessCosts()
    return costs.scaled(0.01) if profile == "fast" else costs


def _getzipcode(zipstr: str) -> list[tuple[str]]:
    """The paper's ``getzipcode`` helping function (Sec. II.B).

    Module-level (not a lambda) so the definition can be pickled into
    worker processes by the multi-process kernel's code shipping.
    """
    return [(code,) for code in zipstr.split(",") if code]


class DisjunctiveCalculus:
    """The calculus of an ``OR`` query: one conjunctive branch per disjunct.

    The execution plan unions the branch plans and eliminates duplicates,
    so a disjunctive query returns the DISTINCT of the true SQL result.
    """

    def __init__(self, branches: tuple[CalculusQuery, ...]) -> None:
        self.branches = branches

    def to_text(self) -> str:
        return "\nOR\n".join(branch.to_text() for branch in self.branches)


class WSMED:
    """The mediator: WSDL import, view generation, query execution."""

    def __init__(
        self,
        registry: ServiceRegistry | None = None,
        *,
        profile: str = "paper",
        seed: int = 2009,
        process_costs: ProcessCosts | None = None,
        cache: CacheConfig | None = None,
    ) -> None:
        self.registry = registry or build_registry(profile, seed=seed)
        self.seed = seed
        self.process_costs = process_costs or _default_costs(profile)
        # Default web-service call cache configuration; None (or a config
        # with enabled=False) executes every call against the broker.
        self.cache_config = cache
        self.catalog = Catalog()
        self.functions = FunctionRegistry()
        self._wrappers: dict[str, object] = {}
        # Notified with the (lower-cased) function name whenever a
        # definition is replaced — the resident engine subscribes to
        # invalidate cached plans and condemn warm pools.  Must exist
        # before the constructor registers the built-in views below.
        self._replace_listeners: list = []
        # Lazily computed by _profile_call_costs() / _profile_fanouts();
        # invalidated by _notify_replace so a swapped registry (or a
        # re-imported endpoint with a new profile) is re-profiled.
        self._call_costs: dict[str, float] | None = None
        self._fanout_hints: dict[str, float] | None = None
        # The paper's helping function (Sec. II.B) ships with the system.
        self.register_helping_function(
            helping_function(
                "getzipcode",
                [("zipstr", CHARSTRING)],
                TupleType((("zipcode", CHARSTRING),)),
                _getzipcode,
                documentation=(
                    "Extracts the set of zip codes from a comma-separated string."
                ),
            )
        )
        self._register_catalog_views()

    def _register_catalog_views(self) -> None:
        """Expose the WSMED local database (Sec. III) as queryable views.

        ``SELECT * FROM ws_operations`` etc. work like any other view —
        the mediator's metadata is data.
        """
        from repro.fdb.types import INTEGER

        for view_name, table, columns in (
            (
                "ws_services",
                self.catalog.services,
                (("uri", CHARSTRING), ("service", CHARSTRING), ("port", CHARSTRING)),
            ),
            (
                "ws_operations",
                self.catalog.operations,
                (
                    ("uri", CHARSTRING),
                    ("service", CHARSTRING),
                    ("operation", CHARSTRING),
                    ("owf", CHARSTRING),
                ),
            ),
            (
                "ws_parameters",
                self.catalog.parameters,
                (
                    ("owf", CHARSTRING),
                    ("position", INTEGER),
                    ("name", CHARSTRING),
                    ("type", CHARSTRING),
                ),
            ),
            (
                "ws_result_columns",
                self.catalog.result_columns,
                (
                    ("owf", CHARSTRING),
                    ("position", INTEGER),
                    ("name", CHARSTRING),
                    ("type", CHARSTRING),
                ),
            ),
        ):
            self.register_helping_function(
                helping_function(
                    view_name,
                    [],
                    TupleType(columns),
                    (lambda table=table: list(table.scan())),
                    documentation=f"WSMED catalog table {view_name}",
                )
            )

    # -- metadata import --------------------------------------------------------

    def import_wsdl(self, uri: str) -> list[str]:
        """Import one WSDL document: catalog metadata + OWF views.

        Returns the names of the generated OWFs.  Re-importing replaces
        the previous definitions.
        """
        document = self.registry.document(uri)
        self.catalog.record_service(uri, document.service_name, document.port_name)
        generated = []
        for operation_name in document.operations:
            wrapper = generate_owf(document, operation_name)
            function = wrapper.as_function()
            self.functions.replace(function)
            self._notify_replace(function.name)
            self._wrappers[function.name.lower()] = wrapper
            self.catalog.record_operation(
                uri,
                document.service_name,
                operation_name,
                function.name,
                parameters=[(n, str(t)) for n, t in wrapper.parameters],
                result_columns=[(n, str(t)) for n, t in wrapper.result_columns],
            )
            generated.append(function.name)
        return generated

    def import_all(self) -> list[str]:
        """Import every WSDL the registry publishes."""
        generated = []
        for uri in self.registry.wsdl_uris():
            generated.extend(self.import_wsdl(uri))
        return generated

    def register_helping_function(self, function: FunctionDef) -> None:
        self.functions.replace(function)
        self._notify_replace(function.name)

    def add_replace_listener(self, listener) -> None:
        """Subscribe to definition replacements.

        ``listener(name)`` fires after a function named ``name`` (lower
        case) is replaced by :meth:`import_wsdl` or
        :meth:`register_helping_function` — plans and process trees
        compiled against the old definition are stale from that point.
        """
        self._replace_listeners.append(listener)

    def _notify_replace(self, name: str) -> None:
        # A replaced definition may come from a re-registered endpoint
        # whose cost profile changed; drop the lazily cached profile
        # snapshots so the next explain()/cost_model() re-reads them.
        self._call_costs = None
        self._fanout_hints = None
        for listener in self._replace_listeners:
            listener(name.lower())

    # -- introspection -------------------------------------------------------------

    def owf_source(self, name: str) -> str:
        """AmosQL-style source of a generated OWF (like the paper's Fig 2)."""
        wrapper = self._wrappers.get(name.lower())
        if wrapper is None:
            raise PlanError(f"no generated OWF named {name!r}")
        return wrapper.render_source()

    def views(self) -> str:
        """Render all registered views."""
        return "\n\n".join(
            render_view(function) for function in self.functions.all()
        )

    # -- planning ---------------------------------------------------------------------

    def _compile(
        self,
        sql_text: str,
        *,
        mode: ExecutionMode | str,
        fanouts: list[int] | None,
        adaptation: AdaptationParams | None,
        name: str,
        obs=NULL_RECORDER,
        optimize: str = "heuristic",
        observed: dict[str, tuple[float, float]] | None = None,
        optimizer_config: OptimizerConfig | None = None,
    ):
        """One compilation pass: returns ``(calculus, plan, report)``.

        Shared by :meth:`plan` and :meth:`explain` so explain does not
        parse and generate the calculus twice.  ``obs`` (a
        :class:`repro.obs.TraceRecorder`) records one span per compile
        phase: parse, calculus, algebra, parallelize, plan_functions.
        Compile spans run on the recorder's wall clock (there is no kernel
        yet), so they form their own root rather than nesting under the
        kernel-clocked query span.

        ``optimize`` selects the central plan creator: ``"heuristic"``
        (the paper's greedy signature heuristic — the default, identical
        to the seed behavior) or ``"cost"`` (the cost-based optimizer of
        :mod:`repro.algebra.optimizer`, with access-path rewriting of
        unfittable binding patterns).  ``observed`` overlays measured
        per-function ``(call cost, fanout)`` statistics onto the profiled
        cost model — the resident engine feeds its
        :class:`~repro.services.broker.CallStats` back through this.
        ``report`` is ``None`` for heuristic compilations.
        """
        mode = ExecutionMode.of(mode)
        if optimize not in ("heuristic", "cost"):
            raise PlanError(
                f"unknown optimize level {optimize!r}; use heuristic or cost"
            )
        root = current = -1
        if obs.enabled:
            root = obs.start(
                f"compile:{name}",
                category="compile",
                process="compiler",
                mode=mode.value,
            )

        def phase(label: str) -> int:
            nonlocal current
            if obs.enabled:
                current = obs.start(
                    label, category="compile", parent=root, process="compiler"
                )
            return current

        try:
            phase("parse")
            query = parse_query(sql_text)
            obs.finish(current)
            phase("calculus")
            if query.is_disjunctive:
                branches = self._disjunct_calculi(query, name, optimize)
                calculus = DisjunctiveCalculus(
                    tuple(branch for branch, _ in branches)
                )
            elif optimize == "cost":
                calculus = generate_calculus(
                    query, self.functions, name, allow_unbound=True
                )
                calculus, rewrites = rewrite_unfittable(calculus, self.functions)
            else:
                calculus = generate_calculus(query, self.functions, name)
                rewrites = []
            obs.finish(current)
            phase("algebra")
            if query.is_disjunctive:
                central = self._union_plan(
                    branches,
                    optimize=optimize,
                    observed=observed,
                    optimizer_config=optimizer_config,
                )
                report = None
            elif optimize == "cost":
                central, report = create_cost_based_plan(
                    calculus,
                    self.functions,
                    self.cost_model(observed),
                    optimizer_config,
                    rewrites=rewrites,
                )
            else:
                central = create_central_plan(calculus, self.functions)
                report = None
            obs.finish(current)
            if mode is ExecutionMode.CENTRAL:
                return calculus, central, report
            phase("parallelize")
            if mode is ExecutionMode.PARALLEL:
                if fanouts is None:
                    raise PlanError("parallel mode requires a fanout vector")
                plan = parallelize(
                    central,
                    self.functions,
                    fanouts=fanouts,
                    obs=obs if obs.enabled else None,
                    obs_parent=current,
                )
            else:
                plan = parallelize(
                    central,
                    self.functions,
                    adaptation=adaptation or AdaptationParams(),
                    obs=obs if obs.enabled else None,
                    obs_parent=current,
                )
            obs.finish(current)
            return calculus, plan, report
        finally:
            if obs.enabled:
                obs.finish(current)  # no-op unless a phase failed mid-way
                obs.finish(root)

    def _disjunct_calculi(
        self, query, name: str, optimize: str
    ) -> list[tuple[CalculusQuery, list]]:
        """One conjunctive calculus (plus rewrites) per OR branch.

        Every branch must independently satisfy the binding patterns: a
        branch whose conjuncts cannot bind an operation's inputs raises
        :class:`~repro.util.errors.BindingError` like any conjunctive
        query would.
        """
        aggregated = query.group_by or (
            not isinstance(query.select, Star)
            and any(isinstance(item.expression, FuncCall) for item in query.select)
        )
        if aggregated:
            raise CalculusError(
                "OR cannot be combined with aggregates or GROUP BY; "
                "aggregate each branch in its own query instead"
            )
        branches = []
        for index, branch in enumerate(query.disjuncts):
            branch_query = _replace(query, predicates=branch, disjuncts=(branch,))
            branch_name = f"{name}_or{index + 1}"
            if optimize == "cost":
                calc = generate_calculus(
                    branch_query, self.functions, branch_name, allow_unbound=True
                )
                calc, rewrites = rewrite_unfittable(calc, self.functions)
            else:
                calc = generate_calculus(branch_query, self.functions, branch_name)
                rewrites = []
            branches.append((calc, rewrites))
        return branches

    def _union_plan(
        self,
        branches: list[tuple[CalculusQuery, list]],
        *,
        optimize: str,
        observed: dict[str, tuple[float, float]] | None,
        optimizer_config: OptimizerConfig | None,
    ) -> PlanNode:
        """Union the branch plans; DISTINCT / ORDER BY / LIMIT go on top.

        Branch plans are built without post-processing (it must apply to
        the union, not per branch); the calculus of the first branch
        carries the resolved ORDER BY keys and LIMIT for the whole query.
        """
        plans = []
        for calc, rewrites in branches:
            bare = _replace(calc, distinct=False, order_by=(), limit=None)
            if optimize == "cost":
                plan, _ = create_cost_based_plan(
                    bare,
                    self.functions,
                    self.cost_model(observed),
                    optimizer_config,
                    rewrites=rewrites,
                )
            else:
                plan = create_central_plan(bare, self.functions)
            plans.append(plan)
        # OR has set semantics here: duplicate rows across (or within)
        # branches are eliminated, i.e. the DISTINCT of the SQL result.
        plan: PlanNode = DistinctNode(UnionNode(tuple(plans)))
        spine = branches[0][0]
        if spine.order_by:
            for column, _ in spine.order_by:
                if column not in plan.schema:
                    raise PlanError(f"unknown ORDER BY column {column!r}")
            plan = SortNode(plan, tuple(spine.order_by))
        if spine.limit is not None:
            plan = LimitNode(plan, spine.limit)
        return plan

    def plan(
        self,
        sql_text: str,
        *,
        options: QueryOptions | None = None,
    ) -> PlanNode:
        """Compile SQL down to an executable plan for the given mode.

        Accepts a :class:`~repro.wsmed.options.QueryOptions` (planning
        fields only).
        """
        opts = resolve_options(options, where="WSMED.plan", rejected=ENGINE_ONLY)
        _, plan, _ = self._compile(
            sql_text,
            mode=opts.mode,
            fanouts=opts.fanouts,
            adaptation=opts.adaptation,
            name=opts.name,
            obs=opts.obs if opts.obs is not None else NULL_RECORDER,
            optimize=opts.optimize,
            observed=opts.observed,
        )
        return plan

    def explain(
        self,
        sql_text: str,
        *,
        options: QueryOptions | None = None,
    ) -> str:
        """Calculus, plan tree and cost estimate as a report.

        With ``optimize="cost"`` the report shows the cost-chosen plan
        annotated with per-operator estimates, the heuristic plan it was
        compared against, and any access-path rewrites applied (with the
        binding-pattern reason) — or, when the heuristic pipeline cannot
        plan the query at all, the error the rewrite repaired.
        """
        opts = resolve_options(options, where="WSMED.explain", rejected=ENGINE_ONLY)
        if opts.optimize == "cost":
            return self._explain_cost(
                sql_text,
                mode=opts.mode,
                fanouts=opts.fanouts,
                adaptation=opts.adaptation,
                name=opts.name,
                observed=opts.observed,
            )
        calculus, plan, _ = self._compile(
            sql_text,
            mode=opts.mode,
            fanouts=opts.fanouts,
            adaptation=opts.adaptation,
            name=opts.name,
        )
        model = CostModel(call_costs=self._profile_call_costs())
        estimate = estimate_plan(plan, self.functions, model)
        sections = [
            "-- calculus --",
            calculus.to_text(),
            "",
            "-- plan --",
            render_plan(plan),
            "",
            "-- estimate --",
            f"web service calls: "
            + ", ".join(f"{op}={calls:.0f}" for op, calls in sorted(estimate.calls.items())),
            f"sequential time: ~{estimate.sequential_time:.1f} s",
        ]
        return "\n".join(sections)

    def _explain_cost(
        self,
        sql_text: str,
        *,
        mode: ExecutionMode | str,
        fanouts: list[int] | None,
        adaptation: AdaptationParams | None,
        name: str,
        observed: dict[str, tuple[float, float]] | None,
    ) -> str:
        """The cost-based explain: chosen plan vs heuristic plan."""
        from repro.util.errors import BindingError

        calculus, plan, report = self._compile(
            sql_text,
            mode=mode,
            fanouts=fanouts,
            adaptation=adaptation,
            name=name,
            optimize="cost",
            observed=observed,
        )
        model = self.cost_model(observed)
        annotations = {
            node_id: (
                f"  -- in≈{e.input_cardinality:.1f} out≈{e.output_cardinality:.1f}"
                + (f" calls≈{e.calls:.0f} time≈{e.time:.1f}s" if e.calls else "")
            )
            for node_id, e in estimate_nodes(plan, self.functions, model).items()
        }
        sections = [
            "-- calculus --",
            calculus.to_text(),
            "",
            "-- cost-based plan --",
            render_plan(plan, annotations=annotations),
            "",
            "-- optimizer --",
            report.describe() if report is not None else "(no report)",
        ]
        estimate = report.estimate if report is not None else None
        if estimate is not None:
            sections += [
                "",
                "-- estimate (cost-based) --",
                "web service calls: "
                + ", ".join(
                    f"{op}={calls:.0f}"
                    for op, calls in sorted(estimate.calls.items())
                ),
                f"sequential time: ~{estimate.sequential_time:.1f} s",
            ]
        sections += ["", "-- heuristic plan --"]
        try:
            _, heuristic_plan, _ = self._compile(
                sql_text,
                mode=mode,
                fanouts=fanouts,
                adaptation=adaptation,
                name=name,
            )
        except BindingError as error:
            sections.append(f"(not plannable without rewrites: {error})")
        else:
            sections.append(render_plan(heuristic_plan))
            heuristic = estimate_plan(heuristic_plan, self.functions, model)
            sections += [
                "",
                "-- estimate (heuristic) --",
                "web service calls: "
                + ", ".join(
                    f"{op}={calls:.0f}"
                    for op, calls in sorted(heuristic.calls.items())
                ),
                f"sequential time: ~{heuristic.sequential_time:.1f} s",
            ]
            if estimate is not None and heuristic.sequential_time > 0:
                ratio = estimate.sequential_time / heuristic.sequential_time
                sections.append(
                    f"cost-based vs heuristic: {ratio:.2f}x estimated "
                    "sequential time"
                )
        return "\n".join(sections)

    def _profile_call_costs(self) -> dict[str, float]:
        if self._call_costs is None:
            costs = {}
            for service_costs in self.registry.costs.values():
                for operation, profile in service_costs.operations.items():
                    costs[operation] = profile.sequential_call_time()
            self._call_costs = costs
        return self._call_costs

    def _profile_fanouts(self) -> dict[str, float]:
        """Advisory rows-per-call hints from the endpoint profiles."""
        if self._fanout_hints is None:
            hints = {}
            for service_costs in self.registry.costs.values():
                for operation, profile in service_costs.operations.items():
                    if profile.fanout_hint is not None:
                        hints[operation] = profile.fanout_hint
            self._fanout_hints = hints
        return self._fanout_hints

    def cost_model(
        self, observed: dict[str, tuple[float, float]] | None = None
    ) -> CostModel:
        """The optimizer's cost model: profiled costs + fanout hints.

        ``observed`` overlays measured per-function ``(call cost,
        fanout)`` pairs — see
        :func:`repro.algebra.cost.model_from_observations`.
        """
        model = CostModel(
            fanouts=dict(self._profile_fanouts()),
            call_costs=dict(self._profile_call_costs()),
        )
        if observed:
            model = model_from_observations(model, observed)
        return model

    # -- execution -----------------------------------------------------------------------

    def sql(
        self,
        sql_text: str,
        *,
        options: QueryOptions | None = None,
    ) -> QueryResult:
        """Run a SQL query and return rows plus execution statistics.

        All per-query knobs travel in ``options`` (a
        :class:`~repro.wsmed.options.QueryOptions`).

        ``kernel`` defaults to a fresh simulated kernel (virtual time);
        pass an :class:`~repro.runtime.realtime.AsyncioKernel` to execute
        with real concurrency.  ``retries`` retries retriable service
        faults per call before giving up.  ``cache`` overrides the
        system-wide :class:`~repro.cache.CacheConfig` for this query;
        when enabled, every query process memoizes its web-service calls.
        ``process_costs`` overrides the system-wide cost model for this
        query (e.g. to enable micro-batching via ``batch_size``).
        ``on_error`` / ``faults`` are shortcuts that override the pool
        failure policy and fault-injection knobs of the effective
        process costs (see :class:`~repro.parallel.costs.ProcessCosts`).
        ``obs`` (a :class:`repro.obs.TraceRecorder`) turns on span
        tracing: compile phases, operator invocations, per-call and
        web-service spans land in its store, which the returned result
        exposes as ``QueryResult.spans`` (see ``critical_path()`` and
        ``chrome_trace()``).  The default no-op recorder leaves the
        execution byte-for-byte identical to an untraced run.
        ``optimize="cost"`` plans with the cost-based optimizer (and
        access-path rewriting) instead of the default greedy heuristic;
        ``observed`` overlays measured per-function (call cost, fanout)
        statistics onto the optimizer's cost model.
        """
        opts = resolve_options(options, where="WSMED.sql", rejected=ENGINE_ONLY)
        mode = ExecutionMode.of(opts.mode)
        recorder = opts.obs if opts.obs is not None else NULL_RECORDER
        _, plan, _ = self._compile(
            sql_text,
            mode=mode,
            fanouts=opts.fanouts,
            adaptation=opts.adaptation,
            name=opts.name,
            obs=recorder,
            optimize=opts.optimize,
            observed=opts.observed,
        )
        effective_costs = opts.process_costs or self.process_costs
        if opts.on_error is not None:
            effective_costs = _replace(effective_costs, on_error=opts.on_error)
        if opts.faults is not None:
            effective_costs = _replace(effective_costs, faults=opts.faults)
        kernel = opts.kernel or SimKernel()
        broker = self.registry.bind(
            kernel, seed=self.seed, fault_rate=opts.fault_rate
        )
        ctx = ExecutionContext(
            kernel=kernel,
            broker=broker,
            functions=self.functions,
            retries=opts.retries,
            limit_pushdown=opts.limit_pushdown,
        )
        ctx.install_cache(opts.cache if opts.cache is not None else self.cache_config)
        attach_placement = getattr(kernel, "attach_placement", None)
        if attach_placement is not None:
            # Multi-process kernel: children of FF/AFF pools are placed in
            # OS worker processes; ship the (current) function registry.
            attach_placement(
                ctx,
                functions=self.functions,
                registry=self.registry,
                seed=self.seed,
                fault_rate=opts.fault_rate,
            )
        executor = ParallelExecutor(ctx, effective_costs)

        async def timed() -> tuple[list[tuple], float]:
            # Span bookkeeping happens inside the coroutine: the realtime
            # kernel's clock is only readable from within its event loop.
            query_span = -1
            if recorder.enabled:
                query_span = recorder.start(
                    f"query:{opts.name}",
                    category="query",
                    process=ctx.process_name,
                    at=kernel.now(),
                    mode=mode.value,
                )
                ctx.obs = recorder
                ctx.obs_span = query_span
                kernel.obs = recorder
            started = kernel.now()
            try:
                rows = await executor.execute(plan)
            except BaseException:
                if recorder.enabled:
                    kernel.obs = None
                    recorder.finish(query_span, at=kernel.now(), outcome="error")
                raise
            elapsed = kernel.now() - started
            if recorder.enabled:
                kernel.obs = None
                recorder.finish(query_span, at=kernel.now(), rows=len(rows))
            return rows, elapsed

        rows, elapsed = kernel.run(timed())
        return QueryResult(
            columns=plan.schema,
            rows=rows,
            elapsed=elapsed,
            mode=mode.value,
            total_calls=broker.total_calls(),
            call_stats=broker.all_stats(),
            trace=ctx.trace,
            tree=tree_stats_from_trace(ctx.trace),
            plan_text=render_plan(plan),
            cache_stats=(
                aggregate_stats(ctx.cache_registry) if ctx.cache_registry else None
            ),
            message_stats=message_stats_from_trace(ctx.trace),
            fault_stats=fault_stats_from_trace(ctx.trace),
            spans=recorder.store if recorder.enabled else None,
        )
