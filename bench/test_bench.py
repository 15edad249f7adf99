"""Tests of the benchmark itself, on the tiny `smoke` workload:

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench  # noqa: E402


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "bench.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def smoke(seed: int, trace: int) -> tuple[dict, dict]:
    proc = run_bench("--workload", "smoke", "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def declared(section: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_pinned_seed_reports_every_declared_metric(trace, section):
    report, result = smoke(1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == declared(section)
    assert report["pinned"] and report["problems"] == []


def test_other_seed_gates_on_determinism_and_trace_fidelity():
    report, result = smoke(7, 1)
    assert not report["pinned"]
    assert result["correct"] and result["failed"] == 0
    assert report["replicates"][0]["digest"] != "bb33e3e121103ee2"


def test_self_times_and_unattributed_share_cover_the_traced_wall():
    report, result = smoke(1, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    spans = sum(v for k, v in metrics.items()
                if k.endswith("_s") and not k.startswith("trace."))
    traced_wall = report["samples"]["traced_wall_s"][0]
    assert spans / traced_wall + metrics["trace.unattributed_share"] == \
        pytest.approx(1.0)
    assert 0.0 <= metrics["trace.unattributed_share"] < 1.0


def test_mismatches_flag_digest_hash_fact_and_violations():
    ref = {"digest": "a", "timeseries_sha256": "h",
           "facts": {"births": 3, "adult_moves": 2}}
    same = {"digest": "a", "timeseries_sha256": "h", "violations": 0,
            "facts": {"births": 3}}
    assert bench.mismatches(ref, same) == []
    for change in ({"digest": "b"}, {"timeseries_sha256": "x"},
                   {"facts": {"births": 4}}, {"violations": 1},
                   {"aborted": True}):
        assert bench.mismatches(ref, dict(same, **change))


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "smoke", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
