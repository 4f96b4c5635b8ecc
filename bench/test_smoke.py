"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Each run is a child process of its own, as the benchmark is meant to run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT, hashseed="0"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONHASHSEED=hashseed),
    )


def _result(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_all_reported(workload):
    metrics = _result(_run(workload, 0))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_processes(workload):
    first = _result(_run(workload, 1, hashseed="1"))["metrics"]
    second = _result(_run(workload, 1, hashseed="2"))["metrics"]
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", ".work"))
    done = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
