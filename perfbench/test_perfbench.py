"""Tests of the benchmark harness itself (they run the workloads, about 90 s).

From the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def parse(proc) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def verdicts(lines: list[str]) -> dict:
    return json.loads(next(ln for ln in lines if ln.startswith("verdicts "))[len("verdicts "):])


def metric_values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def untraced():
    return {w["name"]: parse(run_bench(w["name"], 0)) for w in SPEC["workloads"]}


@pytest.fixture(scope="module")
def traced_main():
    return [parse(run_bench("main-regime", 1, seed)) for seed in (1, 2)]


def test_output_names_every_declared_metric_and_workload(untraced, traced_main):
    for workload in SPEC["workloads"]:
        lines, result = untraced[workload["name"]]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert any(ln.startswith(f"workload {workload['name']} ") for ln in lines)
        assert any(ln.startswith("machine ") for ln in lines)
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert result["metrics"][m["name"]]["value"] > 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    _, result = traced_main[0]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_and_untraced_runs_give_the_same_verdicts(untraced, traced_main):
    assert verdicts(traced_main[0][0]) == verdicts(untraced["main-regime"][0])


def test_traced_counts_are_consistent_and_repeat(traced_main):
    counts = [
        {m["name"]: metric_values(result)[m["name"]]
         for m in SPEC["per_layer"] if m["unit"] == "count"}
        for _, result in traced_main
    ]
    assert counts[0] == counts[1]
    c = counts[0]
    assert c["glue_calls"] > 0 and c["ivp_solves"] > 0
    assert c["glue_calls"] == c["scan_glues"] + c["root_glues"]
    assert c["minimize_failed"] == 0
    assert c["minimize_calls"] == 2 * c["glue_calls"]


def test_trace_restores_the_wrapped_functions():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        from hopfbvp import analysis, shooting, variational
        from layers import Trace

        before = (analysis.glue, shooting.solve_ivp, variational.DiscreteEnergy.energy)
        trace = Trace()
        trace.install()
        try:
            assert analysis.glue is not before[0]
            assert variational.DiscreteEnergy.energy is not before[2]
        finally:
            trace.uninstall()
        assert (analysis.glue, shooting.solve_ivp, variational.DiscreteEnergy.energy) == before
    finally:
        sys.path.remove(str(ROOT / "src"))
        sys.path.remove(str(HERE))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("certify-assemble", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
