"""Smoke tests of the benchmark: every workload at tiny sizes, checked for
the result shape, metric names and units that BENCHMARK.json declares.

    python3 -m pytest -q benchmark/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_result_shape(workload, trace):
    p = run("--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr
    result = last_json(p.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, p.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got == {"value": got["value"], "unit": m["unit"]}
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_all_prints_workload_metric_names():
    p = run("--workload", "all", "--seed", "3", "--smoke")
    assert p.returncode == 0, p.stderr
    result = last_json(p.stdout)
    assert result["correct"] is True and result["failed"] == 0
    for name in ("audit_sweep.audit_trials_per_s", "audit_sweep.audit_max_theorem_s",
                 "grid_scale.grid_carlson_s", "grid_scale.grid_cells_per_s",
                 "explicit_tables.explicit_verdicts_per_s", "cli_cold.cli_p50_ms",
                 "cli_cold.cli_p90_ms", "grid_scale.peak_rss_mb",
                 "audit_sweep.setup_s", "cli_cold.ops_total", "cli_cold.ops_failed"):
        assert name in result["metrics"], name
    assert "trace.overhead_s" in p.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
            "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
