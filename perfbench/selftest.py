"""Tests of the benchmark itself: tiny runs of every workload.

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does
not collect it; it takes about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny_run(workload: str, trace: int, seed: int = 1):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_and_no_errors(workload, trace):
    lines, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in {line.split()[0] for line in lines}
    assert "error_rate 0 ratio" in lines
    # every seed below the recorded count carries a fixed-seed fingerprint
    assert any(line.startswith("# fingerprint") and "recorded=yes" in line for line in lines)


def test_end_to_end_metrics_are_never_zero():
    for workload in WORKLOAD_NAMES:
        _, result = tiny_run(workload, 0, seed=2)
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_flips_and_fingerprint_repeat_across_traced_and_untraced_runs():
    untraced, result0 = tiny_run("dice", 0, seed=3)
    traced, _ = tiny_run("dice", 1, seed=3)
    fingerprint = [line for line in untraced if line.startswith("# fingerprint")]
    assert fingerprint == [line for line in traced if line.startswith("# fingerprint")]
    flips = [line for line in traced if line.startswith("flips_per_sample ")]
    assert flips == [f"flips_per_sample {result0['metrics']['flips_per_sample']['value']:.6g} flips"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "dice", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
