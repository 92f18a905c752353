"""Self-test of the benchmark harness (under a minute, smoke inputs).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import pytest

from benchmarks.perf.cli import ROOT, WORKLOAD_METRICS, load_spec
from benchmarks.perf.tracing import Tracer, wrapped_attributes

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Metrics that depend only on the outputs of a run.
DETERMINISTIC = ("feasible_rate", "quality_ratio", "sim_tts_us", "sim_ets_uj")

Harness = Tuple[int, List[Dict[str, Any]], List[Dict[str, Any]]]


def run_harness(out: Path, *args: str, pythonpath: Optional[str] = None) -> Harness:
    """Run the harness; return (exit code, result lines, run records)."""
    env = dict(os.environ)
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "perf" / "run.py"),
         "--smoke", "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, env=env,
    )
    lines = [json.loads(x) for x in done.stdout.splitlines() if x.startswith("{")]
    records = json.loads(out.read_text())["runs"] if out.exists() else []
    return done.returncode, lines, records


@pytest.fixture(scope="module")
def untraced(tmp_path_factory: pytest.TempPathFactory) -> Harness:
    return run_harness(tmp_path_factory.mktemp("runs") / "untraced.json", "--seed", "3")


@pytest.fixture(scope="module")
def traced(tmp_path_factory: pytest.TempPathFactory) -> Harness:
    out = tmp_path_factory.mktemp("runs") / "traced.json"
    return run_harness(out, "--seed", "3", "--trace")


def assert_result_lines(lines: List[Dict[str, Any]], section: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())


def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced: Harness) -> None:
    code, lines, records = untraced
    assert code == 0
    assert_result_lines(lines, "end_to_end")
    assert [r["workload"] for r in records] == WORKLOADS
    for record in records:
        assert set(record["workload_metrics"]) <= set(WORKLOAD_METRICS)
        assert record["workload_metrics"]["error_rate"] == 0.0


def test_trace_emits_every_per_layer_metric(traced: Harness) -> None:
    code, lines, records = traced
    assert code == 0
    assert_result_lines(lines, "per_layer")
    layers = {r["workload"]: r["per_layer"] for r in records}
    assert layers["tsp-pcb3038-serial"]["annealer.solve.s"] > 0
    assert layers["tsp-ensemble-batched"]["annealer.solve_batch.s"] > 0
    assert layers["gateway-tsp-stream"]["protocol.decode_request.s"] > 0
    assert layers["gateway-qubo-mix"]["backend.solve.simcim.s"] > 0


def test_tracer_restores_every_wrapped_attribute(tmp_path: Path) -> None:
    from repro import AnnealerConfig, ClusteredCIMAnnealer, random_clustered

    tracer = Tracer(tmp_path)
    tracer.install()
    try:
        assert wrapped_attributes()
        ClusteredCIMAnnealer(AnnealerConfig(seed=1)).solve(
            random_clustered(20, n_clusters=2, seed=1)
        )
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {"annealer.solve", "annealer.solve_level", "engine.trials"} <= names
    assert wrapped_attributes() == []


def test_oracle_mismatch_counts_as_failure_and_exits_non_zero(tmp_path: Path) -> None:
    # A sitecustomize on the path makes the batched engine return valid
    # tours (so the program's own integrity gate passes) that differ from
    # the serial oracle, in every process of the run.
    (tmp_path / "sitecustomize.py").write_text(textwrap.dedent("""
        import numpy as np

        import repro.annealer.batched as batched
        from repro.tsp.tour import tour_length

        _solve_batch = batched.solve_batch

        def solve_batch(instance, config, seeds):
            results = _solve_batch(instance, config, seeds)
            for result in results:
                result.tour = np.roll(result.tour, 1)
                result.length = tour_length(instance, result.tour)
            return results

        batched.solve_batch = solve_batch
    """))
    code, lines, records = run_harness(
        tmp_path / "runs.json", "--workload", "tsp-ensemble-batched", "--seed", "3",
        pythonpath=os.pathsep.join([str(ROOT / "src"), str(tmp_path)]),
    )
    assert code != 0
    assert lines[-1]["correct"] is False and lines[-1]["failed"] > 0
    assert records[0]["workload_metrics"]["error_rate"] > 0


def deterministic(record: Dict[str, Any]) -> Tuple[Dict[str, float], str]:
    values = {**record["end_to_end"], **record["workload_metrics"]}
    return {k: values[k] for k in DETERMINISTIC if k in values}, record["digest"]


def test_deterministic_metrics_repeat_at_one_seed_and_differ_at_another(
    untraced: Harness, traced: Harness, tmp_path: Path
) -> None:
    # The traced run at the same seed is the repeat: tracing must not
    # change what the program computes either.
    again = traced[2]
    other = run_harness(tmp_path / "other.json", "--seed", "4")[2]
    assert len(again) == len(other) == len(untraced[2]) == len(WORKLOADS)
    for first, repeat, moved in zip(untraced[2], again, other):
        assert deterministic(first) == deterministic(repeat)
        assert deterministic(first)[1] != deterministic(moved)[1]
        if "quality_ratio" in first["workload_metrics"]:
            assert (
                first["workload_metrics"]["quality_ratio"]
                != moved["workload_metrics"]["quality_ratio"]
            )
