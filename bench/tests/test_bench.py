"""Tests of the benchmark itself: python3 -m pytest bench/tests

Tiny runs of every workload, traced and untraced, plus the seed and
refusal rules the benchmark promises.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import workloads  # noqa: E402


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def outputs(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-2].startswith("diagnostics ")
    return json.loads(lines[-2][len("diagnostics "):]), json.loads(lines[-1])


def tiny(workload: str, seed: int = 3, trace: int = 0) -> tuple[dict, dict]:
    return outputs(run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                       "--trace", str(trace)))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    diag, result = tiny(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace:
        assert diag["self_within_job"]
        if workload == "certify":
            assert diag["counts"]["closure_states"] == {"gamma": 1632, "delta": 1632}
            assert result["metrics"]["kernel.closure_states"]["value"] == 1632
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["tables", "exact"])
def test_one_seed_gives_identical_inputs_and_counts(workload):
    assert workloads.make_requests(workload, 5, 2) == workloads.make_requests(workload, 5, 2)
    assert workloads.make_requests(workload, 5, 2) != workloads.make_requests(workload, 6, 2)
    first, second = tiny(workload, seed=5)[0], tiny(workload, seed=5)[0]
    other = tiny(workload, seed=6)[0]
    assert first["inputs_sha256"] == second["inputs_sha256"] != other["inputs_sha256"]
    assert first["counts"] == second["counts"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "tables", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
