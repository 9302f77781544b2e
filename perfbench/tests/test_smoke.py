"""Smoke test of the benchmark: every workload once, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, seed=1, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    if not trace:
        # ops_ok_ratio is 1 - ops_failed_ratio
        assert result["metrics"]["ops_ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", ["paper-study", "scale"])
def test_checks_pass_on_a_second_seed(workload):
    proc = run_bench(ROOT, workload, seed=2, trace=0)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0, proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "paper-study", seed=1, trace=0)
    assert proc.returncode != 0
    assert proc.stdout == ""
