"""Smoke test of the benchmark harness.

Runs every workload at the shortest run length (one full run, plus the
set-up runs) in both modes and fails if a metric named in BENCHMARK.json is
missing or has another unit, or if one of the workload's output checks did
not run.  About a minute on two cores:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON_CHECKS = {"exit_code", "report", "byte_identical"}
CHECKS = {
    "sim-fig5b": COMMON_CHECKS | {"grid_steps", "reference_populations"},
    "sim-n6": COMMON_CHECKS | {"grid_steps", "reference_populations"},
    "scan-n10": COMMON_CHECKS | {"scan_points", "oracle_agrees",
                                 "dark_count_histogram"},
}


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_every_workload_has_its_checks():
    assert set(CHECKS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]

    ran = json.loads(next(line for line in lines
                          if line.startswith("checks "))[len("checks "):])
    missing = {name for name in CHECKS[workload] if not ran.get(name)}
    assert not missing, f"output checks that did not run: {missing}"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "scan-n10", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
