"""The benchmark harness runs and checks its own outputs: one short
`wide-output` run untraced, and one traced, whose machines are wrapped in
the harness's step-only timing proxy; and one short untraced run of each
other workload, the only ones that compile to a TWT and run GLS.  Each run
also takes the steps per pass, of the token and of the walking machines,
that its seed fixes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the (iam, walking) steps of one pass with --seed 1
STEPS = {"wide-output": (57_228, 28_614), "deep-input": (8_170, 16_340),
         "many-small": (245_080, 238_682)}


def run_bench(workload, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0 and report["attempted"] > 0
    steps = re.search(r"per pass iam\.steps (\d+), walking\.steps (\d+)",
                      proc.stderr)
    assert tuple(map(int, steps.groups())) == STEPS[workload]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_wide_output_runs_correctly(trace):
    run_bench("wide-output", "--trace", trace)


@pytest.mark.parametrize("workload", ["deep-input", "many-small"])
def test_bench_workload_runs_correctly(workload):
    run_bench(workload)
