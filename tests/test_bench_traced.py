"""The traced benchmark run on each gated workload. A per-layer metric
whose leaf is never called in a run is never recorded, and the benchmark
then reports it as not measured. The seed-1 year of `hourly_year` has no
death and only three events, so the death-rate leaf is reached there only
through the death bands; `daily_decade` has deaths. `bench/test_bench.py`
runs only `smoke`."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, "bench/bench.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(result["metrics"]) == declared
