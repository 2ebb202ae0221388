"""Query results with execution statistics.

The statistics surface is the :meth:`QueryResult.report` method: it renders
named sections ("calls", "tree", "cache", "batch", "faults",
"critical_path"), every number coming from the :class:`MetricsRegistry`
built by :meth:`QueryResult.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.cache import CacheStats
from repro.fdb.values import Bag
from repro.obs.critical_path import CriticalPathReport, analyze_critical_path
from repro.obs.export import to_chrome_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanStore
from repro.parallel.batching import MessageStats
from repro.parallel.faults import FaultStats
from repro.parallel.tree import TreeStats
from repro.services.broker import CallStats
from repro.util.trace import TraceLog

#: Section names accepted by :meth:`QueryResult.report`, in display order.
REPORT_SECTIONS = ("calls", "tree", "cache", "batch", "faults", "critical_path")


@dataclass
class QueryResult:
    """Everything one query execution produced.

    ``elapsed`` is in *model seconds* — under the simulated kernel that is
    the virtual clock the paper's wall-clock measurements correspond to.
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    elapsed: float
    mode: str
    total_calls: int
    call_stats: dict[str, CallStats] = field(default_factory=dict)
    trace: TraceLog = field(default_factory=TraceLog)
    tree: TreeStats = field(default_factory=TreeStats)
    plan_text: str = ""
    # Aggregated web-service call-cache counters across all query
    # processes; None when the query ran without a cache.
    cache_stats: CacheStats | None = None
    # Data-path message counts aggregated over every operator pool in the
    # query (per-tuple and batched, both directions).  Central-mode runs
    # send no inter-process messages, so all counters stay 0.
    message_stats: MessageStats = field(default_factory=MessageStats)
    # Failure accounting aggregated over every operator pool (failed
    # calls, redeliveries, skips, respawns, breaker trips); all zero on a
    # clean run.
    fault_stats: FaultStats = field(default_factory=FaultStats)
    # Span store of a traced run (``obs=TraceRecorder()``); None when the
    # query ran untraced.
    spans: SpanStore | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def as_dicts(self) -> list[dict]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def as_bag(self) -> Bag:
        """Order-insensitive view for comparing parallel to central runs."""
        return Bag(self.rows)

    def calls(self, operation: str) -> int:
        stats = self.call_stats.get(operation)
        return stats.calls if stats else 0

    def to_json(self) -> str:
        """Serialize the result and its statistics for external tooling."""
        import json

        payload = {
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "elapsed_model_seconds": self.elapsed,
            "mode": self.mode,
            "total_calls": self.total_calls,
            "operations": {
                name: {
                    "calls": stats.calls,
                    "rows": stats.rows,
                    "bytes": stats.bytes_transferred,
                    "mean_total_time": stats.total_time.mean,
                    "mean_queue_wait": stats.queue_wait.mean,
                }
                for name, stats in sorted(self.call_stats.items())
            },
            "cache": self.cache_stats.as_dict() if self.cache_stats else None,
            "messages": self.message_stats.as_dict(),
            "faults": self.fault_stats.as_dict(),
            "tree": {
                "processes_spawned": self.tree.processes_spawned,
                "processes_dropped": self.tree.processes_dropped,
                "add_stages": self.tree.add_stages,
                "drop_stages": self.tree.drop_stages,
                "average_fanouts": self.tree.average_fanouts(),
            },
        }
        return json.dumps(payload, indent=2)

    def process_tree(self) -> str:
        """ASCII rendering of the process tree this execution built."""
        from repro.parallel.visualize import render_process_tree

        return render_process_tree(self.trace)

    def utilization(self, top: int = 12) -> str:
        """Text report of the busiest query processes."""
        from repro.parallel.visualize import render_utilization

        return render_utilization(self.trace, top=top)

    def summary(self) -> str:
        """One-paragraph execution report for interactive use."""
        registry = self.metrics()
        lines = [
            f"{len(self.rows)} rows in {self.elapsed:.2f} model seconds "
            f"({self.mode} mode, {self.total_calls} web service calls)",
        ]
        for operation in sorted(self.call_stats):
            stats = self.call_stats[operation]
            lines.append(
                f"  {operation}: {stats.calls} calls, "
                f"mean {stats.total_time.mean:.3f}s, "
                f"queue {stats.queue_wait.mean:.3f}s"
            )
        if self.tree.processes_spawned:
            lines.append("  " + self._render_tree(registry))
        if self.cache_stats is not None:
            lines.append("  " + self._render_cache(registry))
        if self.message_stats.param_batches or self.message_stats.result_batches:
            lines.append("  " + self._render_batch(registry))
        if self.fault_stats.any():
            lines.append("  " + self._render_faults(registry))
        return "\n".join(lines)

    # -- the metrics registry ---------------------------------------------------

    def metrics(self) -> MetricsRegistry:
        """Load every execution statistic into one :class:`MetricsRegistry`.

        This is the programmatic twin of :meth:`report`: the same numbers
        the rendered sections show, under stable metric names
        (``ws.calls{operation=...}``, ``cache.hits``, ``faults.respawns``,
        ``span.ws.duration`` ...).
        """
        registry = MetricsRegistry()
        registry.gauge("query.rows").set(len(self.rows))
        registry.gauge("query.elapsed").set(self.elapsed)
        registry.gauge("query.total_calls").set(self.total_calls)

        for operation, stats in self.call_stats.items():
            labels = {"operation": operation}
            registry.counter("ws.calls", labels).inc(stats.calls)
            registry.counter("ws.rows", labels).inc(stats.rows)
            registry.counter("ws.bytes", labels).inc(stats.bytes_transferred)
            registry.counter("ws.faults", labels).inc(stats.faults)
            registry.counter("ws.timeouts", labels).inc(stats.timeouts)
            registry.gauge("ws.mean_total_time", labels).set(stats.total_time.mean)
            registry.gauge("ws.mean_queue_wait", labels).set(stats.queue_wait.mean)
            registry.gauge("ws.mean_server_time", labels).set(stats.server_time.mean)

        tree = self.tree
        registry.counter("tree.processes_spawned").inc(tree.processes_spawned)
        registry.counter("tree.processes_dropped").inc(tree.processes_dropped)
        registry.counter("tree.add_stages").inc(tree.add_stages)
        registry.counter("tree.drop_stages").inc(tree.drop_stages)
        for level, fanout in enumerate(tree.average_fanouts()):
            registry.gauge("tree.average_fanout", {"level": str(level)}).set(fanout)

        registry.gauge("cache.enabled").set(0.0 if self.cache_stats is None else 1.0)
        if self.cache_stats is not None:
            cache = self.cache_stats
            registry.counter("cache.hits").inc(cache.hits)
            registry.counter("cache.misses").inc(cache.misses)
            registry.counter("cache.collapsed").inc(cache.collapsed)
            registry.counter("cache.evictions").inc(cache.evictions)
            registry.counter("cache.expirations").inc(cache.expirations)
            registry.counter("cache.calls_avoided").inc(cache.calls_avoided)
            registry.gauge("cache.hit_rate").set(cache.hit_rate)
            # Engine-level sharing tier, attributed to this query (the
            # per-process counters above never include these, so the
            # numbers add without double counting).
            registry.counter("cache.shared_hits").inc(cache.shared_hits)
            registry.counter("cache.shared_waits").inc(cache.shared_waits)
            registry.counter("cache.coalesced_calls").inc(cache.coalesced)

        messages = self.message_stats
        registry.counter("messages.total").inc(messages.total_messages)
        registry.counter("messages.down").inc(messages.downlink_messages)
        registry.counter("messages.up").inc(messages.uplink_messages)
        registry.counter("batch.param_batches").inc(messages.param_batches)
        registry.counter("batch.batched_params").inc(messages.batched_params)
        registry.counter("batch.param_tuples").inc(messages.param_tuples)
        registry.counter("batch.result_batches").inc(messages.result_batches)
        registry.counter("batch.batched_results").inc(messages.batched_results)
        registry.counter("batch.result_tuples").inc(messages.result_tuples)
        for trigger, count in messages.flushes.items():
            registry.counter("batch.flushes", {"trigger": trigger}).inc(count)

        faults = self.fault_stats
        registry.counter("faults.failed_calls").inc(faults.failed_calls)
        registry.counter("faults.redeliveries").inc(faults.redeliveries)
        registry.counter("faults.skipped_rows").inc(faults.skipped_rows)
        registry.counter("faults.respawns").inc(faults.respawns)
        registry.counter("faults.breaker_trips").inc(faults.breaker_trips)

        if self.spans is not None:
            for span in self.spans:
                if span.instant or span.end is None:
                    continue
                registry.histogram(
                    "span.duration", {"category": span.category}
                ).observe(span.duration)
        return registry

    # -- the report surface ------------------------------------------------------

    def report(self, sections: list[str] | tuple[str, ...] | str | None = None) -> str:
        """Render named statistics sections from the metrics registry.

        ``sections`` picks which to show (any of ``REPORT_SECTIONS``); the
        default shows every section the execution produced data for.
        """
        registry = self.metrics()
        if sections is None:
            chosen = ["calls", "tree", "cache", "batch", "faults"]
            if self.spans is not None:
                chosen.append("critical_path")
        elif isinstance(sections, str):
            chosen = [sections]
        else:
            chosen = list(sections)
        lines = []
        for section in chosen:
            renderer = self._SECTION_RENDERERS.get(section)
            if renderer is None:
                known = ", ".join(REPORT_SECTIONS)
                raise ValueError(
                    f"unknown report section {section!r}; known sections: {known}"
                )
            lines.append(renderer(self, registry))
        return "\n".join(lines)

    def _render_calls(self, registry: MetricsRegistry) -> str:
        lines = [
            f"calls: {int(registry.value('query.total_calls'))} web service "
            f"calls in {registry.value('query.elapsed'):.2f} model seconds "
            f"({self.mode} mode)"
        ]
        for operation in sorted(self.call_stats):
            labels = {"operation": operation}
            lines.append(
                f"  {operation}: {int(registry.value('ws.calls', labels))} calls, "
                f"mean {registry.value('ws.mean_total_time', labels):.3f}s, "
                f"queue {registry.value('ws.mean_queue_wait', labels):.3f}s"
            )
        return "\n".join(lines)

    def _render_tree(self, registry: MetricsRegistry) -> str:
        if not registry.value("tree.processes_spawned"):
            return "process tree: no child processes (central plan?)"
        return (
            f"process tree: {int(registry.value('tree.processes_spawned'))} spawned, "
            f"{int(registry.value('tree.processes_dropped'))} dropped, "
            f"avg fanouts {['%.1f' % f for f in self.tree.average_fanouts()]}"
        )

    def _render_cache(self, registry: MetricsRegistry) -> str:
        if not registry.value("cache.enabled"):
            return "call cache: off"
        line = (
            f"call cache: {int(registry.value('cache.hits'))} hits, "
            f"{int(registry.value('cache.misses'))} misses, "
            f"{int(registry.value('cache.collapsed'))} collapsed, "
            f"{int(registry.value('cache.evictions'))} evicted, "
            f"{int(registry.value('cache.expirations'))} expired "
            f"({registry.value('cache.hit_rate'):.0%} hit rate, "
            f"{int(registry.value('cache.calls_avoided'))} calls avoided)"
        )
        shared_hits = int(registry.value("cache.shared_hits"))
        shared_waits = int(registry.value("cache.shared_waits"))
        coalesced = int(registry.value("cache.coalesced_calls"))
        if shared_hits or shared_waits or coalesced:
            line += (
                f"\nshared tier: {shared_hits} shared hits, "
                f"{shared_waits} single-flight waits, "
                f"{coalesced} calls coalesced into cross-query batches"
            )
        return line

    def _render_batch(self, registry: MetricsRegistry) -> str:
        if not self.message_stats.any():
            return "batching: no inter-process messages (central plan?)"
        parts = [
            f"messages: {int(registry.value('messages.total'))} "
            f"({int(registry.value('messages.down'))} down, "
            f"{int(registry.value('messages.up'))} up)",
            f"param batches: {int(registry.value('batch.param_batches'))} "
            f"carrying {int(registry.value('batch.batched_params'))} tuples "
            f"(+{int(registry.value('batch.param_tuples'))} singles)",
            f"result batches: {int(registry.value('batch.result_batches'))} "
            f"carrying {int(registry.value('batch.batched_results'))} rows "
            f"(+{int(registry.value('batch.result_tuples'))} singles)",
        ]
        if self.message_stats.flushes:
            triggers = ", ".join(
                f"{trigger}={int(registry.value('batch.flushes', {'trigger': trigger}))}"
                for trigger in sorted(self.message_stats.flushes)
            )
            parts.append(f"flushes: {triggers}")
        return "; ".join(parts)

    def _render_faults(self, registry: MetricsRegistry) -> str:
        if not self.fault_stats.any():
            return "faults: none"
        return (
            f"faults: {int(registry.value('faults.failed_calls'))} failed calls, "
            f"{int(registry.value('faults.redeliveries'))} redelivered, "
            f"{int(registry.value('faults.skipped_rows'))} skipped, "
            f"{int(registry.value('faults.respawns'))} children respawned, "
            f"{int(registry.value('faults.breaker_trips'))} breaker trips"
        )

    def _render_critical_path(self, registry: MetricsRegistry) -> str:
        return self.critical_path().render()

    _SECTION_RENDERERS = {
        "calls": _render_calls,
        "tree": _render_tree,
        "cache": _render_cache,
        "batch": _render_batch,
        "faults": _render_faults,
        "critical_path": _render_critical_path,
    }

    # -- tracing accessors --------------------------------------------------------

    def critical_path(self) -> CriticalPathReport:
        """Critical-path analysis of a traced run (empty when untraced)."""
        return analyze_critical_path(self.spans if self.spans is not None else SpanStore())

    def chrome_trace(self) -> dict:
        """The traced run as a Chrome trace-event JSON object."""
        return to_chrome_trace(self.spans if self.spans is not None else SpanStore())

    def write_trace(self, path: str) -> None:
        """Write :meth:`chrome_trace` to ``path`` (open it in Perfetto)."""
        write_chrome_trace(self.spans if self.spans is not None else SpanStore(), path)
