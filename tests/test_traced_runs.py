"""The benchmark's traced runs must work on the package as it stands.

A traced run (``perfbench/run.py --trace 1``) rebinds every public
function and class name of the package modules to a traced stand-in,
swaps ``estimator.np`` for a view of numpy, and reads the spans of fixed
names.  So renaming or removing a public function, or building or
type-testing a module-level package class on a query path (the stand-in
is no class), breaks a traced run while every untraced test still passes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["exact-scan", "mc-long", "sweep-dense"])
def test_traced_benchmark_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
