"""The benchmark harness runs and checks its own outputs: one short
`wide-output` run untraced, and one traced, whose machines are wrapped in
the harness's step-only timing proxy."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_wide_output_runs_correctly(trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "wide-output", "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0 and report["attempted"] > 0
