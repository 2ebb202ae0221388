"""Self-tests of the benchmark, in a short mode.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

They check that every metric BENCHMARK.json names is emitted with its
unit, that inputs and deterministic counts follow the seed, and that the
per-layer ledger adds up.  Runs write their history to a temporary file.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from ledger import Ledger  # noqa: E402

SHORT_SECONDS = 1.0

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


@pytest.fixture(autouse=True)
def _scratch_history(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "HISTORY", str(tmp_path / "history.jsonl"))


def _run(workload: str, seed: int, trace: int, capsys) -> dict:
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(SHORT_SECONDS),
         "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_lists_the_runner_metrics_and_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, capsys):
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        metrics = _run(workload, 7, trace, capsys)["metrics"]
        assert set(metrics) == {m["name"] for m in declared}
        for metric in declared:
            value = metrics[metric["name"]]
            assert value["unit"] == metric["unit"]
            assert isinstance(value["value"], float | int)
        if trace == 0:
            assert all(v["value"] > 0 for v in metrics.values()), metrics


def test_same_seed_same_inputs_other_seed_other_inputs():
    def streams(seed):
        return (
            [inputs.paper_rotation(seed, i) for i in range(4)],
            [inputs.engine_block(seed, i) for i in range(2)],
            inputs.serve_schedule(seed, 6.0, 10.0),
        )

    assert streams(3) == streams(3)
    for first, second in zip(streams(3), streams(4)):
        assert first != second


def test_engine_mix_is_stratified():
    block = inputs.engine_block(11, 0)
    assert block[0].kind == "reimport"
    queries = block[1:]
    assert len(queries) == inputs.ENGINE_BLOCK
    for first in range(0, len(queries), inputs.ENGINE_CLIENTS):
        batch = queries[first : first + inputs.ENGINE_CLIENTS]
        assert sorted(step.kind for step in batch) == sorted(inputs.ENGINE_BATCH_KINDS)
    other = inputs.engine_block(12, 0)[1:]
    assert other != queries
    assert sorted(step.variant for step in other) == sorted(step.variant for step in queries)


@pytest.mark.parametrize("workload", ["paper_q1_oneshot", "engine_zipf_shared"])
def test_sim_kernel_counts_repeat_for_a_seed(workload, capsys):
    def counts(seed):
        metrics = _run(workload, seed, 0, capsys)["metrics"]
        return metrics["ws_calls_per_query"]["value"], metrics["model_s_per_query"]["value"]

    assert counts(5) == counts(5)


def test_self_times_and_unattributed_add_up_to_the_traced_wall():
    from repro import QUERY1_SQL, WSMED, QueryOptions

    wsmed = WSMED(profile="paper")
    wsmed.import_all()
    options = QueryOptions(mode="parallel", fanouts=[5, 4])
    with Ledger() as ledger:
        started = time.perf_counter()
        wsmed.sql(QUERY1_SQL, options=options)
        wall = time.perf_counter() - started
    snapshot = ledger.snapshot()
    metrics = run.per_layer(run.Outcome(completed=1), [], snapshot, wall)
    layer_ms = sum(metrics[name] for name in run.LAYER_TIMES.values())
    unattributed_ms = metrics["bench.unattributed_frac"] * wall * 1000.0
    assert layer_ms + unattributed_ms == pytest.approx(wall * 1000.0, rel=1e-9)
    assert 0.0 <= metrics["bench.unattributed_frac"] < 0.2
    assert metrics["services.provider_ms"] > 0 and metrics["services.soap_ms"] > 0
    # Uninstalling restores every wrapped name.
    from repro.wsmed import system
    from repro.sql.parser import parse_query

    assert system.parse_query is parse_query
