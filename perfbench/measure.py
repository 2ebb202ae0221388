"""Measurement helpers shared by the workloads: outcomes, percentiles,
memory, deprecation counting and the per-query counters of a result."""

from __future__ import annotations

import os
import statistics
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method; q in 1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: Iterations of the calibration loop, and the seconds it takes on the
#: reference host state.  The constant only fixes the unit: a speed factor
#: of 1.0 means "as fast as the reference".
CALIBRATION_ITERATIONS = 30_000
REFERENCE_CALIBRATION_S = 0.0055


def speed_factor() -> float:
    """How many times slower than the reference the host runs right now.

    Times a fixed loop of dict updates and integer arithmetic that uses
    only the interpreter, never the program, so no change to the program
    can move it.
    """
    started = time.perf_counter()
    table: dict = {}
    for i in range(CALIBRATION_ITERATIONS):
        table[i % 97] = table.get(i % 97, 0) + i * 3 // 7
    return (time.perf_counter() - started) / REFERENCE_CALIBRATION_S


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


@dataclass
class Outcome:
    """What one workload run measured, before it becomes metrics."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    window_s: float = 0.0
    #: speed_factor() samples taken through the window, and the time they
    #: took (left out of throughput).  Empty when the latencies are not
    #: CPU-bound and stay unscaled.
    factors: list = field(default_factory=list)
    calibration_s: float = 0.0
    completed: int = 0
    setup_samples: list = field(default_factory=list)
    setup_factors: list = field(default_factory=list)
    #: (calls, model seconds) per query over the workload's deterministic
    #: count window; model seconds may be None off the sim kernel.
    counted: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    deprecations: int = 0

    def calibrate(self) -> None:
        """Sample the host speed inside the window."""
        started = time.perf_counter()
        self.factors.append(speed_factor())
        self.calibration_s += time.perf_counter() - started

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """Count one operation; a false ``ok`` fails it."""
        self.attempted += 1
        if not ok:
            self.fail(message)
        return ok


class DeprecationCounter:
    """Counts DeprecationWarnings raised from inside ``repro`` without
    turning them into errors or printing them."""

    def __init__(self) -> None:
        self.count = 0
        self._saved = None

    def __enter__(self) -> "DeprecationCounter":
        self._saved = warnings.catch_warnings()
        self._saved.__enter__()
        warnings.simplefilter("always", DeprecationWarning)

        def show(message, category, filename, lineno, file=None, line=None):
            if issubclass(category, DeprecationWarning) and (
                f"{os.sep}repro{os.sep}" in filename
            ):
                self.count += 1

        warnings.showwarning = show
        return self

    def __exit__(self, *exc_info) -> None:
        self._saved.__exit__(*exc_info)


def bag(rows) -> Counter:
    return Counter(tuple(row) for row in rows)


def is_subbag(small: Counter, big: Counter) -> bool:
    return all(big.get(row, 0) >= n for row, n in small.items())


def group_counts(reference: Counter) -> Counter:
    """The GROUP BY state COUNT(*) answer implied by a (place, state) bag."""
    per_state: Counter = Counter()
    for (_, state), n in reference.items():
        per_state[state] += n
    return Counter({(state, n): 1 for state, n in per_state.items()})


def result_counters(result) -> dict:
    """Per-query counters from a QueryResult's public statistics."""
    stats = result.call_stats.values()
    messages = result.message_stats
    cache = result.cache_stats
    return {
        "calls": sum(s.calls for s in stats),
        "bytes": sum(s.bytes_transferred for s in stats),
        "queue_wait_model_s": sum(s.queue_wait.total for s in stats),
        "messages": messages.downlink_messages + messages.uplink_messages,
        "param_batches": messages.param_batches,
        "processes_spawned": result.tree.processes_spawned,
        "cache_answered": (
            cache.hits + cache.collapsed + cache.shared_hits + cache.shared_waits
            if cache is not None
            else 0
        ),
    }


class Stopwatch:
    def __init__(self) -> None:
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started
