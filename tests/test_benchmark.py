"""The benchmark's own self-test, run with the unit tests so that renaming a
function the benchmark traces (such as commutator_subgroup) fails here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 failed", proc.stdout


def _refuse_constant(name):
    raise ValueError(f"{name} in the result line")


def test_traced_run_ends_with_a_strict_json_result():
    """A traced run installs the tracer and calls run_corpus serially and
    with jobs=2; its last stdout line must still be the result, in JSON
    with no NaN or Infinity."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True, result
