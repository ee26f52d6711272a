"""The benchmark harness runs and checks its own outputs: one short
`wide-output` run untraced, and one traced, whose machines are wrapped in
the harness's step-only timing proxy; and one short untraced run of each
other workload, the only ones that compile to a TWT and run GLS."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_bench(workload, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0 and report["attempted"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_wide_output_runs_correctly(trace):
    run_bench("wide-output", "--trace", trace)


@pytest.mark.parametrize("workload", ["deep-input", "many-small"])
def test_bench_workload_runs_correctly(workload):
    run_bench(workload)
