"""The traced benchmark run on `hourly_year`, whose seed-1 year has no
death and only three events: a per-layer metric whose leaf is never called
there is never recorded, and the benchmark then reports it as not
measured. `bench/test_bench.py` runs only `smoke`, which has deaths."""
from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_hourly_year_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "bench/bench.py", "--workload", "hourly_year",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert list(result["metrics"]) == declared
