"""Smoke test for the benchmark itself, at reduced sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload's job must pass every output check, and every metric that
BENCHMARK.json names must be emitted with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNTS = ("solver.solves", "solver.iterations", "conic.kkt_dim",
          "pipeline.useful_solve_ratio", "models_kept")


def run(workload, trace, root=ROOT, seed=5):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_of(out):
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 2
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_pass_and_every_metric_is_emitted(workload, trace):
    metrics = result_of(run(workload, trace))["metrics"]
    named = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in named}


def test_counts_repeat_between_runs():
    first, second = (result_of(run("grid-simplex-m60", 1))["metrics"] for _ in range(2))
    for name in COUNTS:
        assert first[name] == second[name], name


def test_all_runs_every_workload():
    metrics = result_of(run("all", 0))["metrics"]
    assert {k.split(".", 1)[0] for k in metrics} == set(WORKLOADS)


def test_fails_without_the_program_sources():
    bare = ROOT / ".bench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = run(WORKLOADS[0], 0, root=bare)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
