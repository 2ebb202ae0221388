"""Regenerate every figure/table of the paper in one run.

Usage::

    python -m benchmarks.report

Prints, in order: the central baselines, the Fig 16 and Fig 17 grids, the
tree-shape comparison, the Fig 21 adaptive sweep, the adaptation timeline
and the ablations.  EXPERIMENTS.md records a snapshot of this output.

Benches that track a perf trajectory across PRs additionally write
machine-readable snapshots via :func:`save_bench_json` into
``BENCH_<name>.json`` at the repository root (override the directory with
the ``BENCH_RESULTS_DIR`` environment variable).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from benchmarks import (
    bench_ablations,
    bench_adaptation_trace,
    bench_batching,
    bench_call_cache,
    bench_central_plans,
    bench_fault_tolerance,
    bench_fig16_query1_grid,
    bench_fig17_query2_grid,
    bench_fig21_adaptive,
    bench_prefetch,
    bench_scaling,
    bench_threshold_sweep,
    bench_tree_shapes,
)

SECTIONS = (
    ("Central baselines (Secs. I/II/V)", bench_central_plans.main),
    ("Fig 16", bench_fig16_query1_grid.main),
    ("Fig 17", bench_fig17_query2_grid.main),
    ("Tree shapes (Figs 14/15)", bench_tree_shapes.main),
    ("Fig 21", bench_fig21_adaptive.main),
    ("Threshold sweep (Sec. V.A)", bench_threshold_sweep.main),
    ("Adaptation timeline (Figs 18-20)", bench_adaptation_trace.main),
    ("Ablations", bench_ablations.main),
    ("Prefetch depth ablation", bench_prefetch.main),
    ("Workload scaling", bench_scaling.main),
    ("Call cache (skewed keys)", bench_call_cache.main),
    ("Micro-batching (batch size x fanout)", bench_batching.main),
    ("Fault tolerance (injected failures/crashes)", bench_fault_tolerance.main),
)


def save_bench_json(name: str, payload: dict) -> Path:
    """Write one bench's machine-readable results and return the path.

    Results land in ``BENCH_<name>.json`` at the repository root, the one
    copy the perf trajectory is diffed from across PRs, or under
    ``$BENCH_RESULTS_DIR`` when it is set (tests, scratch runs).
    """
    override = os.environ.get("BENCH_RESULTS_DIR")
    directory = Path(override) if override else Path(__file__).parent.parent
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def main() -> None:
    for title, run in SECTIONS:
        print("=" * 72)
        print(title)
        print("=" * 72)
        run()
        print()


if __name__ == "__main__":
    main()
