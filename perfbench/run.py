"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_q1_oneshot --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from an
untraced run; ``--trace 1`` installs the per-layer timing wrappers of
``ledger.py`` around the timed window and reports the per-layer metrics.
Every output is checked; the last line of standard output is the JSON
result, and the exit code is non-zero if any check failed.  Each run also
appends one record, with its provenance, to ``perfbench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"perfbench: no src/repro under {ROOT}; run from a repository checkout")
sys.path.insert(0, os.path.join(ROOT, "src"))

from ledger import Ledger, delta  # noqa: E402
from measure import DeprecationCounter, Outcome, peak_rss_mb, percentile  # noqa: E402
from workloads import WORKLOADS, ServeHttpMix  # noqa: E402

from repro import TraceRecorder  # noqa: E402

HISTORY = os.path.join(HERE, "history.jsonl")
#: Rounds of (plain, wrapped, obs-traced) probe operations that measure
#: the overhead of the ledger wrappers and of repro's own span tracing.
OVERHEAD_ROUNDS = 5

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "1/s",
    "model_s_per_query": "s",
    "ws_calls_per_query": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sql.parse_ms": "ms",
    "calculus.generate_ms": "ms",
    "algebra.plan_ms": "ms",
    "parallel.parallelize_ms": "ms",
    "services.provider_ms": "ms",
    "services.soap_ms": "ms",
    "services.calls": "count",
    "services.bytes": "bytes",
    "services.queue_wait_model_s": "s",
    "parallel.messages": "count",
    "parallel.param_batches": "count",
    "parallel.processes_spawned": "count",
    "runtime.loop_self_ms": "ms",
    "runtime.wire_msgs": "count",
    "runtime.wire_bytes": "bytes",
    "runtime.wire_ms": "ms",
    "cache.hit_ratio": "ratio",
    "engine.shared_hit_ratio": "ratio",
    "engine.singleflight_waits": "count",
    "engine.coalesced_calls": "count",
    "engine.shared_evictions": "count",
    "engine.plan_hit_ratio": "ratio",
    "engine.pool_reuse_ratio": "ratio",
    "engine.invalidations": "count",
    "engine.shared_entries": "count",
    "engine.working_set_calls": "count",
    "serve.ttfb_ms": "ms",
    "serve.stream_ms": "ms",
    "serve.rejected": "count",
    "serve.max_rate_rps": "1/s",
    "serve.stop_s": "s",
    "loadgen.lag_p90_ms": "ms",
    "obs.trace_overhead_frac": "ratio",
    "bench.unattributed_frac": "ratio",
    "bench.wrapper_overhead_frac": "ratio",
    "wsmed.deprecations": "count",
}

#: ledger layer -> per-layer metric of its self time per query.
LAYER_TIMES = {
    "sql": "sql.parse_ms",
    "calculus": "calculus.generate_ms",
    "algebra": "algebra.plan_ms",
    "parallelize": "parallel.parallelize_ms",
    "provider": "services.provider_ms",
    "soap": "services.soap_ms",
    "runtime": "runtime.loop_self_ms",
}


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end(out: Outcome) -> dict:
    """End-to-end metrics.  CPU-bound times are divided by the run's median
    host speed factor and rates multiplied by it, which reports them in
    reference-host units (see README.md, "Host noise and speed
    calibration")."""
    calls = [c for c, _ in out.counted]
    model = [m for _, m in out.counted if m is not None]
    speed = statistics.median(out.factors) if out.factors else 1.0
    return {
        "latency_p50_ms": percentile(out.latencies_ms, 50) / speed,
        "latency_p90_ms": percentile(out.latencies_ms, 90) / speed,
        "throughput_qps": out.completed / (out.window_s - out.calibration_s) * speed,
        "model_s_per_query": _mean(model),
        "ws_calls_per_query": _mean(calls),
        "setup_s": statistics.median(out.setup_samples) / statistics.median(out.setup_factors),
        "peak_rss_mb": out.peak_rss_mb,
    }


def per_layer(out: Outcome, counters: list, ledger: dict, wall_s: float) -> dict:
    # The ledger spans the queries it saw: the timed window in process, the
    # whole server lifetime (warm-up and every phase) for the HTTP workload.
    n = max(1, out.info.get("server_queries", out.completed))
    self_s = ledger.get("self_s", {})
    off_main = ledger.get("off_main", {})
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for layer, name in LAYER_TIMES.items():
        metrics[name] = self_s.get(layer, 0.0) * 1000.0 / n
    metrics["runtime.wire_ms"] = (self_s.get("wire", 0.0) + off_main.get("wire", 0.0)) * 1000.0 / n
    metrics["runtime.wire_msgs"] = ledger.get("wire_msgs", 0) / n
    metrics["runtime.wire_bytes"] = ledger.get("wire_bytes", 0) / n
    for key, name in (
        ("calls", "services.calls"),
        ("bytes", "services.bytes"),
        ("queue_wait_model_s", "services.queue_wait_model_s"),
        ("messages", "parallel.messages"),
        ("param_batches", "parallel.param_batches"),
        ("processes_spawned", "parallel.processes_spawned"),
    ):
        metrics[name] = _mean([c.get(key, 0) for c in counters])
    answered = sum(c.get("cache_answered", 0) for c in counters)
    asked = answered + sum(c.get("calls", 0) for c in counters)
    metrics["cache.hit_ratio"] = answered / asked if asked else 0.0
    attributed = sum(self_s.values())
    metrics["bench.unattributed_frac"] = (wall_s - attributed) / wall_s if wall_s else 0.0
    metrics.update(out.layers)
    metrics["wsmed.deprecations"] = float(out.deprecations)
    return metrics


def overheads(workload, out: Outcome) -> None:
    """Paired probes: plain vs ledger-wrapped vs repro span tracing."""
    plain, wrapped, traced = [], [], []
    for _ in range(OVERHEAD_ROUNDS):
        for sink, ledger, obs in (
            (plain, None, None),
            (wrapped, Ledger(), None),
            (traced, None, TraceRecorder()),
        ):
            if ledger is not None:
                ledger.install()
            started = time.perf_counter()
            try:
                workload.probe(obs=obs)
            finally:
                sink.append(time.perf_counter() - started)
                if ledger is not None:
                    ledger.uninstall()
    base = statistics.median(plain)
    out.layers["bench.wrapper_overhead_frac"] = statistics.median(wrapped) / base - 1.0
    out.layers["obs.trace_overhead_frac"] = statistics.median(traced) / base - 1.0


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = ServeHttpMix(traced=trace) if name == ServeHttpMix.name else WORKLOADS[name]()
    out = Outcome()
    counters: list = []
    ledger_delta: dict = {}
    wall_s = 0.0
    with DeprecationCounter() as deprecations:
        try:
            workload.setup(seed, out)
            ledger = Ledger().install() if trace and workload.in_process else None
            try:
                started = time.perf_counter()
                before = ledger.snapshot() if ledger else {}
                workload.window(seconds, out, counters)
                wall_s = time.perf_counter() - started
                if ledger is not None:
                    ledger_delta = delta(ledger.snapshot(), before)
            finally:
                if ledger is not None:
                    ledger.uninstall()
            if workload.in_process:
                out.peak_rss_mb = peak_rss_mb()
            if trace and workload.in_process:
                overheads(workload, out)
            if trace and name == "engine_zipf_shared":
                # Behind the shared cache every distinct call reaches a
                # provider; the cache-free reference runs count them.
                with Ledger() as tally:
                    workload.finish(out, fresh_references=True)
                out.layers["engine.working_set_calls"] = float(len(tally.distinct_calls))
            else:
                workload.finish(out)
        finally:
            workload.close()
    out.deprecations = deprecations.count
    if name == ServeHttpMix.name and trace and "server_ledger" in out.info:
        server = out.info.pop("server_ledger")
        ledger_delta = server
        wall_s = server["wall_s"]
        out.deprecations = server["deprecations"]
        out.layers["bench.wrapper_overhead_frac"] = (
            out.info["probe_ms_traced"] / out.info["probe_ms_untraced"] - 1.0
        )
    out.info["latency_samples"] = len(out.latencies_ms)
    out.info["raw_latency_p50_ms"] = percentile(out.latencies_ms, 50)
    out.info["speed_factor"] = statistics.median(out.factors) if out.factors else 1.0
    out.info["setup_speed_factor"] = statistics.median(out.setup_factors)
    if trace:
        metrics = per_layer(out, counters, ledger_delta, wall_s)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(out)
        units = END_TO_END_UNITS
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "errors": out.errors,
        "info": out.info,
        "deprecations": out.deprecations,
    }


def provenance(name: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
    }


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the benchmark runs outside a git checkout."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    trace = bool(arguments.trace)
    result = run(arguments.workload, arguments.seed, arguments.seconds, trace)
    record = provenance(arguments.workload, arguments.seed, arguments.seconds, trace)
    record.update(result)
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    for error in result["errors"]:
        print(f"FAILED: {error}")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'attempted':32s} {result['attempted']:14d}")
    print(f"{'failed_frac':32s} {result['failed'] / max(1, result['attempted']):14.6g}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
