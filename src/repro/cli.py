"""Command-line front end: one-shot queries, an interactive shell, and
the HTTP server.

One-shot::

    python -m repro --query "SELECT gs.Name FROM GetAllStates gs LIMIT 3"
    python -m repro --query "$SQL" --mode parallel --fanouts 5,4 --tree
    python -m repro --query "$SQL" --kernel process --workers 4

Server::

    python -m repro serve --port 8080 --kernel process --workers 4

Interactive::

    python -m repro
    wsmed> \\mode adaptive
    wsmed> SELECT gp.ToState, gp.zip FROM ... ;
    wsmed> \\tree

Meta commands: ``\\views``, ``\\owf NAME``, ``\\mode``, ``\\fanouts``,
``\\profile``, ``\\explain SQL;``, ``\\tree``, ``\\summary``, ``\\rows N``,
``\\stats [SECTION]``, ``\\help``, ``\\quit``.  Statistics live under one
``\\stats`` command (sections: calls, tree, cache, batch, faults,
critical_path, engine, share); ``\\cache``/``\\batch``/``\\faults`` are
toggles that, with no argument, print their current setting.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace
from typing import IO

from repro.algebra.plan import AdaptationParams
from repro.cache import CacheConfig
from repro.engine import QueryEngine, ShareConfig
from repro.obs import TraceRecorder
from repro.parallel.faults import FaultInjection
from repro.runtime.base import Kernel
from repro.util.errors import ReproError
from repro.wsmed.options import QueryOptions
from repro.wsmed.results import REPORT_SECTIONS, QueryResult
from repro.wsmed.system import WSMED


def format_table(result: QueryResult, max_rows: int = 20) -> str:
    """Align a result as a text table, truncated to ``max_rows``."""
    header = list(result.columns)
    shown = [tuple(str(value) for value in row) for row in result.rows[:max_rows]]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in shown)) if shown else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        " | ".join(name.ljust(widths[i]) for i, name in enumerate(header)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in shown:
        lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(header))))
    if len(result.rows) > max_rows:
        lines.append(f"... ({len(result.rows) - max_rows} more rows)")
    lines.append(
        f"({len(result.rows)} rows, {result.elapsed:.2f} model s, "
        f"{result.total_calls} web service calls, {result.mode} mode)"
    )
    return "\n".join(lines)


def _parse_fanouts(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(" ", "").split(",") if part != ""]
    except ValueError:
        raise ReproError(f"invalid fanout vector {text!r}; expected e.g. 5,4") from None


class Shell:
    """The interactive session state."""

    def __init__(
        self,
        wsmed: WSMED,
        out: IO[str],
        *,
        mode: str = "central",
        fanouts: list[int] | None = None,
        retries: int = 0,
        cache: CacheConfig | None = None,
        on_error: str | None = None,
        engine: QueryEngine | None = None,
        trace_out: str | None = None,
        kernel: Kernel | None = None,
        optimize: str = "heuristic",
    ) -> None:
        self.wsmed = wsmed
        self.out = out
        # With a resident engine the shell is *warm*: repeated queries
        # reuse compiled plans and child-process trees across statements
        # instead of cold-starting per query (see repro.engine).
        self.engine = engine
        # Explicit execution kernel for the engineless path (--kernel
        # asyncio/process without --engine); the engine owns its own.
        self.kernel = kernel
        self.mode = mode
        self.fanouts = fanouts
        # Planner level: "heuristic" (the seed's query-order γ-plan) or
        # "cost" (the cost-based optimizer of repro.algebra.optimizer).
        self.optimize = optimize
        self.adaptation = AdaptationParams()
        self.retries = retries
        self.cache_config = cache
        self.max_rows = 20
        self.last_result: QueryResult | None = None
        # Micro-batching overrides applied on top of the system's cost
        # model per query (keys of ProcessCosts: batch_size, batch_linger,
        # batch_adaptive).  Empty = the per-tuple seed protocol.
        self.batch: dict[str, object] = {}
        # Pool failure policy (None = the seed default, "fail") and
        # optional fault injection for demonstrating it.
        self.on_error = on_error
        self.fault_injection: FaultInjection | None = None
        # When set, every query runs traced and its span tree is written
        # to this path as a Chrome trace-event file (open in Perfetto).
        self.trace_out = trace_out

    def write(self, text: str) -> None:
        print(text, file=self.out)

    # -- execution ------------------------------------------------------------

    def run_sql(self, sql: str) -> None:
        kwargs = {}
        if self.mode == "parallel":
            kwargs["fanouts"] = self.fanouts
        elif self.mode == "adaptive":
            kwargs["adaptation"] = self.adaptation
        if self.batch:
            kwargs["process_costs"] = replace(
                self.wsmed.process_costs, **self.batch
            )
        if self.on_error is not None:
            kwargs["on_error"] = self.on_error
        if self.fault_injection is not None:
            kwargs["faults"] = self.fault_injection
        if self.trace_out is not None:
            kwargs["obs"] = TraceRecorder()
        if self.engine is None and self.kernel is not None:
            kwargs["kernel"] = self.kernel
        if self.optimize != "heuristic":
            kwargs["optimize"] = self.optimize
        options = QueryOptions(
            mode=self.mode,
            retries=self.retries,
            cache=self.cache_config,
            **kwargs,
        )
        runner = self.engine.sql if self.engine is not None else self.wsmed.sql
        result = runner(sql, options=options)
        self.last_result = result
        self.write(format_table(result, self.max_rows))
        if self.trace_out is not None:
            result.write_trace(self.trace_out)
            self.write(f"trace written to {self.trace_out}")

    def explain(self, sql: str) -> None:
        kwargs = {}
        if self.mode == "parallel":
            kwargs["fanouts"] = self.fanouts
        elif self.mode == "adaptive":
            kwargs["adaptation"] = self.adaptation
        if self.optimize != "heuristic":
            kwargs["optimize"] = self.optimize
        options = QueryOptions(mode=self.mode, **kwargs)
        self.write(self.wsmed.explain(sql, options=options))

    # -- meta commands -----------------------------------------------------------

    def meta(self, line: str) -> bool:
        """Handle a ``\\...`` command; returns False to exit the shell."""
        command, _, argument = line[1:].partition(" ")
        command = command.strip().lower()
        argument = argument.strip()
        if command in ("quit", "q", "exit"):
            return False
        if command == "help":
            self.write(HELP_TEXT)
        elif command == "views":
            self.write(self.wsmed.views())
        elif command == "owf":
            self.write(self.wsmed.owf_source(argument))
        elif command == "mode":
            if argument not in ("central", "parallel", "adaptive"):
                raise ReproError("mode must be central, parallel or adaptive")
            self.mode = argument
            self.write(f"mode = {self.mode}")
        elif command == "fanouts":
            self.fanouts = _parse_fanouts(argument)
            self.write(f"fanouts = {self.fanouts}")
        elif command == "optimize":
            if argument not in ("heuristic", "cost"):
                raise ReproError("optimize must be heuristic or cost")
            self.optimize = argument
            self.write(f"optimize = {self.optimize}")
        elif command == "retries":
            self.retries = int(argument)
            self.write(f"retries = {self.retries}")
        elif command == "stats":
            self._stats_command(argument)
        elif command == "cache":
            self._cache_command(argument)
        elif command == "batch":
            self._batch_command(argument)
        elif command == "faults":
            self._faults_command(argument)
        elif command == "rows":
            self.max_rows = int(argument)
            self.write(f"rows = {self.max_rows}")
        elif command == "explain":
            self.explain(argument.rstrip(";"))
        elif command == "tree":
            if self.last_result is None:
                raise ReproError("no query has been executed yet")
            self.write(self.last_result.process_tree())
        elif command == "summary":
            if self.last_result is None:
                raise ReproError("no query has been executed yet")
            self.write(self.last_result.summary())
        elif command == "util":
            if self.last_result is None:
                raise ReproError("no query has been executed yet")
            self.write(self.last_result.utilization())
        elif command == "gantt":
            if self.last_result is None:
                raise ReproError("no query has been executed yet")
            from repro.parallel.visualize import render_gantt

            self.write(render_gantt(self.last_result.trace))
        else:
            raise ReproError(f"unknown command \\{command}; try \\help")
        return True

    def _stats_command(self, argument: str) -> None:
        """``\\stats [SECTION]``: the unified statistics report.

        Sections are those of :meth:`QueryResult.report` plus ``engine``
        (the resident engine's own counters) and ``share`` (its
        multi-query sharing tiers).  No argument shows every section of
        the last execution.
        """
        section = argument.strip().lower()
        if section in _ENGINE_OFF:
            if self.engine is None:
                self.write(_ENGINE_OFF[section])
            elif section == "engine":
                self.write(self.engine.stats().report())
            else:
                self.write(self.engine.stats().share_report())
            return
        if section and section not in REPORT_SECTIONS:
            known = ", ".join(REPORT_SECTIONS + tuple(_ENGINE_OFF))
            raise ReproError(
                f"unknown stats section {section!r}; known sections: {known}"
            )
        if self.last_result is None:
            raise ReproError("no query has been executed yet")
        if section == "critical_path" and self.last_result.spans is None:
            raise ReproError(
                "the last query was not traced; rerun with --trace-out FILE "
                "to record spans"
            )
        self.write(
            self.last_result.report(sections=section if section else None)
        )

    def _cache_command(self, argument: str) -> None:
        """``\\cache [on [TTL] | off]``: toggle memoization / show the setting."""
        if argument:
            word, _, ttl_text = argument.partition(" ")
            word = word.strip().lower()
            if word == "on":
                ttl = float(ttl_text) if ttl_text.strip() else None
                self.cache_config = CacheConfig(enabled=True, ttl=ttl)
                suffix = f" (ttl {ttl:g} model s)" if ttl is not None else ""
                self.write(f"cache = on{suffix}")
            elif word == "off":
                self.cache_config = None
                self.write("cache = off")
            else:
                raise ReproError(r"usage: \cache [on [TTL] | off]")
            return
        self.write(f"call cache: {'on' if self.cache_config else 'off'}")

    def _batch_command(self, argument: str) -> None:
        """``\\batch [N | adaptive | linger T | off]``: micro-batching."""
        if argument:
            word, _, rest = argument.partition(" ")
            word = word.strip().lower()
            if word == "off":
                self.batch = {}
                self.write("batch = off (per-tuple protocol)")
            elif word == "adaptive":
                self.batch["batch_adaptive"] = True
                self.write("batch = adaptive")
            elif word == "linger":
                try:
                    linger = float(rest)
                except ValueError:
                    raise ReproError(
                        r"usage: \batch linger T (model seconds)"
                    ) from None
                self.batch["batch_linger"] = linger
                self.write(f"batch linger = {linger:g} model s")
            else:
                try:
                    self.batch["batch_size"] = int(word)
                except ValueError:
                    raise ReproError(
                        r"usage: \batch [N | adaptive | linger T | off]"
                    ) from None
                self.write(f"batch size = {self.batch['batch_size']}")
            return
        self.write(f"batching = {self.batch or 'off'}")

    def _faults_command(self, argument: str) -> None:
        """``\\faults [fail|retry|skip | inject P [C] | off]``: fault policy."""
        if argument:
            word, _, rest = argument.partition(" ")
            word = word.strip().lower()
            if word in ("fail", "retry", "skip"):
                self.on_error = word
                self.write(f"on_error = {word}")
            elif word == "inject":
                parts = rest.split()
                try:
                    failure = float(parts[0]) if parts else 0.0
                    crash = float(parts[1]) if len(parts) > 1 else 0.0
                except ValueError:
                    raise ReproError(
                        r"usage: \faults inject FAIL_PROB [CRASH_PROB]"
                    ) from None
                self.fault_injection = FaultInjection(
                    call_failure_probability=failure, crash_probability=crash
                )
                self.write(
                    f"fault injection: call failure {failure:g}, crash {crash:g}"
                )
            elif word == "off":
                self.on_error = None
                self.fault_injection = None
                self.write("faults = off (policy fail, no injection)")
            else:
                raise ReproError(
                    r"usage: \faults [fail|retry|skip | inject P [C] | off]"
                )
            return
        injection = (
            "none"
            if self.fault_injection is None
            else f"call failure {self.fault_injection.call_failure_probability:g}"
            f", crash {self.fault_injection.crash_probability:g}"
        )
        self.write(f"on_error = {self.on_error or 'fail'}; injection = {injection}")

    # -- the loop ------------------------------------------------------------------

    def repl(self, source: IO[str]) -> None:
        buffer: list[str] = []
        self.write("WSMED shell — SQL terminated by ';', \\help for commands")
        while True:
            prompt = "wsmed> " if not buffer else "  ...> "
            print(prompt, end="", file=self.out, flush=True)
            line = source.readline()
            if not line:
                break
            stripped = line.strip()
            if not stripped:
                continue
            if not buffer and stripped.startswith("\\"):
                try:
                    if not self.meta(stripped):
                        break
                except (ReproError, ValueError) as error:
                    self.write(f"error: {error}")
                continue
            buffer.append(stripped)
            if stripped.endswith(";"):
                sql = " ".join(buffer).rstrip(";")
                buffer = []
                try:
                    self.run_sql(sql)
                except ReproError as error:
                    self.write(f"error: {error}")


#: The engine-level ``\\stats`` sections, with what they print when the
#: shell runs without a resident engine.
_ENGINE_OFF = {
    "engine": "resident engine: off (start with --engine to keep "
    "plans and process trees warm between queries)",
    "share": "sharing: off (start with --engine --share to dedup and "
    "batch web-service calls across concurrent queries)",
}

HELP_TEXT = """\
meta commands:
  \\views            list all generated views
  \\owf NAME         show the generated OWF source (paper Fig 2 style)
  \\mode M           central | parallel | adaptive
  \\fanouts 5,4      fanout vector for parallel mode
  \\optimize L       planner level: heuristic (seed) | cost (optimizer)
  \\retries N        retry retriable service faults N times per call
  \\stats            all statistics sections of the last execution
  \\stats SECTION    one section: calls | tree | cache | batch | faults
                    | critical_path (traced runs) | engine | share
  \\cache            current call-cache setting
  \\cache on [TTL]   memoize web-service calls (optional TTL, model s)
  \\cache off        disable the call cache
  \\batch            current batching setting
  \\batch N          coalesce N parameter/result tuples per message
  \\batch adaptive   adapt the batch size per child at run time
  \\batch linger T   flush partial batches after T model seconds
  \\batch off        back to the per-tuple protocol
  \\faults           current failure policy and injection
  \\faults P         failure policy: fail | retry | skip
  \\faults inject F [C]  inject per-call failures (prob F) / crashes (C)
  \\faults off       seed behavior: policy fail, no injection
  \\rows N           max rows displayed
  \\explain SQL;     show calculus, plan and cost estimate
  \\tree             process tree of the last execution
  \\summary          statistics of the last execution
  \\util             busiest processes of the last execution
  \\gantt            service-call timeline of the last execution
  \\quit             leave"""


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="WSMED: SQL over (simulated) data providing web services",
    )
    parser.add_argument("--query", help="run one query and exit")
    parser.add_argument(
        "--mode",
        default="central",
        choices=("central", "parallel", "adaptive"),
    )
    parser.add_argument("--fanouts", help="fanout vector for parallel mode, e.g. 5,4")
    parser.add_argument(
        "--optimize",
        default="heuristic",
        choices=("heuristic", "cost"),
        help="planner level: heuristic (the seed's query-order plan, "
        "default) or cost (bushy search + binding-pattern rewrites; see "
        "repro.algebra.optimizer)",
    )
    parser.add_argument(
        "--profile", default="paper", choices=("paper", "fast", "uncontended")
    )
    parser.add_argument("--retries", type=int, default=0)
    parser.add_argument(
        "--cache",
        action="store_true",
        help="memoize web-service calls per query process",
    )
    parser.add_argument(
        "--batch",
        metavar="N|adaptive",
        help="micro-batch N tuples per message, or adapt per child",
    )
    parser.add_argument(
        "--on-error",
        choices=("fail", "retry", "skip"),
        help="pool policy for failed web-service calls (default: fail)",
    )
    parser.add_argument(
        "--engine",
        action="store_true",
        help="run queries on a resident engine (warm plans and process trees)",
    )
    parser.add_argument(
        "--share",
        action="store_true",
        help="share work across concurrent queries on the resident engine "
        "(shared call cache, cross-query single-flight/batching, shared "
        "pools); implies --engine",
    )
    parser.add_argument("--explain", action="store_true", help="explain, don't run")
    parser.add_argument("--tree", action="store_true", help="print the process tree")
    parser.add_argument("--summary", action="store_true", help="print statistics")
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the full statistics report after the query",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="trace the query and write a Chrome trace-event file "
        "(open in Perfetto: https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--kernel",
        default="sim",
        choices=("sim", "asyncio", "process"),
        help="execution kernel: sim (virtual time, the default), asyncio "
        "(real time), or process (child pools sharded across OS worker "
        "processes)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="OS worker processes for --kernel process (default 4)",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="serve SQL over HTTP against a resident query engine "
        "(POST /sql, GET /stats, GET /healthz; see repro.serve)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listening port (0 binds an ephemeral port; default 8080)",
    )
    parser.add_argument(
        "--kernel",
        default="asyncio",
        choices=("asyncio", "process"),
        help="execution kernel (the simulated kernel cannot host a real "
        "socket server); default asyncio",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="OS worker processes for --kernel process (default 4)",
    )
    parser.add_argument(
        "--profile", default="paper", choices=("paper", "fast", "uncontended")
    )
    parser.add_argument(
        "--share",
        action="store_true",
        help="share call results and pools across concurrent requests",
    )
    parser.add_argument(
        "--optimize",
        default="heuristic",
        choices=("heuristic", "cost"),
        help="default planner level for requests that don't set "
        '"optimize" (cost enables the cost-based optimizer with '
        "live-stats re-optimization)",
    )
    parser.add_argument(
        "--trace-dir",
        default="traces",
        metavar="DIR",
        help='where per-request Chrome traces land ("trace": true requests)',
    )
    parser.add_argument(
        "--admission",
        default="static",
        choices=("static", "adaptive"),
        help="admission policy: static (the max-concurrency semaphore, "
        "default) or adaptive (online capacity probing, tenant fair "
        "queueing, deadline shedding; see repro.engine.admission)",
    )
    parser.add_argument(
        "--admission-threshold",
        type=float,
        default=1.5,
        metavar="X",
        help="p50 inflation vs the solo baseline that marks a concurrency "
        "level unsafe under --admission adaptive (default 1.5)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="default per-query deadline in model milliseconds; a query "
        "the measured service rate cannot finish in time is shed with "
        "HTTP 429 + Retry-After (adaptive admission only)",
    )
    return parser


def _build_kernel(name: str, workers: int) -> Kernel | None:
    """``--kernel`` to kernel; ``None`` keeps the seed default (sim)."""
    if name == "process":
        from repro.runtime.multiprocess import ProcessKernel

        return ProcessKernel(workers=workers)
    if name == "asyncio":
        from repro.runtime.realtime import AsyncioKernel

        return AsyncioKernel(resident=True)
    return None


def serve_main(argv: list[str], out: IO[str]) -> int:
    """``python -m repro serve ...``: run the HTTP front end."""
    import signal

    from repro.serve import QueryServer

    arguments = build_serve_parser().parse_args(argv)
    kernel = _build_kernel(arguments.kernel, arguments.workers)
    wsmed = WSMED(profile=arguments.profile)
    wsmed.import_all()
    if arguments.admission == "adaptive":
        from repro.engine.admission import AdmissionConfig

        admission: str | AdmissionConfig = AdmissionConfig(
            threshold=arguments.admission_threshold,
            default_deadline_ms=arguments.deadline_ms,
        )
    else:
        admission = "static"
    with kernel:
        engine = QueryEngine(
            wsmed,
            kernel=kernel,
            share=ShareConfig(enabled=True) if arguments.share else None,
            admission=admission,
        )
        server = QueryServer(
            engine,
            host=arguments.host,
            port=arguments.port,
            trace_dir=arguments.trace_dir,
            default_optimize=arguments.optimize,
        )

        async def _serve() -> None:
            await server.start()
            print(
                f"serving on http://{server.host}:{server.port} "
                f"({arguments.kernel} kernel"
                + (
                    f", {arguments.workers} workers"
                    if arguments.kernel == "process"
                    else ""
                )
                + ") — Ctrl-C to stop",
                file=out,
                flush=True,
            )
            await server.run()

        # Graceful stop on SIGTERM/SIGINT (supervisors send TERM; a
        # shell-backgrounded server inherits SIGINT as ignored, so an
        # explicit handler is needed either way): the accept loop winds
        # down, then the engine and kernel tear down in order.
        def _request_stop(signum, frame) -> None:
            print("shutting down", file=out, flush=True)
            server.stop()

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
        try:
            kernel.run(_serve())
        except KeyboardInterrupt:
            pass
        finally:
            engine.close()
    return 0


def main(argv: list[str] | None = None, out: IO[str] | None = None) -> int:
    out = out or sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["serve"]:
        return serve_main(argv[1:], out)
    arguments = build_argument_parser().parse_args(argv)
    wsmed = WSMED(profile=arguments.profile)
    wsmed.import_all()
    fanouts = _parse_fanouts(arguments.fanouts) if arguments.fanouts else None
    kernel = _build_kernel(arguments.kernel, arguments.workers)
    engine = None
    if arguments.engine or arguments.share:
        engine = QueryEngine(
            wsmed,
            kernel=kernel,
            share=ShareConfig(enabled=True) if arguments.share else None,
        )
    shell = Shell(
        wsmed,
        out,
        mode=arguments.mode,
        fanouts=fanouts,
        retries=arguments.retries,
        cache=CacheConfig(enabled=True) if arguments.cache else None,
        on_error=arguments.on_error,
        engine=engine,
        trace_out=arguments.trace_out,
        kernel=kernel,
        optimize=arguments.optimize,
    )
    if arguments.batch:
        if arguments.batch.strip().lower() == "adaptive":
            shell.batch["batch_adaptive"] = True
        else:
            try:
                shell.batch["batch_size"] = int(arguments.batch)
            except ValueError:
                print(
                    f"error: --batch expects a size or 'adaptive', "
                    f"got {arguments.batch!r}",
                    file=out,
                )
                return 1
    # `with kernel:` (Kernel.__enter__/__exit__) guarantees the worker
    # fleet / event loop is torn down even when the query raises.
    with kernel if kernel is not None else contextlib.nullcontext():
        try:
            if arguments.query is None:
                shell.repl(sys.stdin)
                return 0
            try:
                if arguments.explain:
                    shell.explain(arguments.query)
                else:
                    shell.run_sql(arguments.query)
                    if arguments.tree:
                        print(shell.last_result.process_tree(), file=out)
                    if arguments.summary:
                        print(shell.last_result.summary(), file=out)
                    if arguments.stats:
                        print(shell.last_result.report(), file=out)
            except ReproError as error:
                print(f"error: {error}", file=out)
                return 1
            return 0
        finally:
            if engine is not None:
                engine.close()
