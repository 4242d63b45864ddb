"""The benchmark's own self-test, run with the unit tests so that renaming a
function the benchmark traces (such as commutator_subgroup) fails here."""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_every_function_statistic_names_a_traced_function(monkeypatch):
    """Each function that run.FUNCTION_STATS reports on resolves the way
    TraceSummary.index resolves it: a public function defined in one of the
    tracer's layer modules, or an IntLattice method in LATTICE_METHODS.  A
    name that resolves to nothing is reported with a null value and marked
    absent, and the run still exits 0."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run
    import tracer
    from dimfox.intlinalg import IntLattice

    traced = {f"IntLattice.{m}" for m in tracer.LATTICE_METHODS if inspect.isfunction(vars(IntLattice).get(m))}
    for layer in tracer.LAYERS:
        mod = importlib.import_module(f"dimfox.{layer}")
        traced.update(
            name
            for name, obj in vars(mod).items()
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__
        )
    missing = [fn for fn, _ in run.FUNCTION_STATS if fn not in traced]
    assert not missing, f"FUNCTION_STATS names no traced function for {missing}"


def test_entry_bits_read_the_entries_of_a_z_span_not_its_columns(monkeypatch):
    """entry_bits_max.Z is read from `lattice.rows`, which must stay the
    dense rows: a sparse row held as a {column: entry} map would report the
    bits of its column indices.  Here the one entry is 5 (3 bits) at
    column 40 (6 bits); a span over Z/m reports nothing."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer
    from dimfox.groupring import CoeffRing, ModuleSpan
    from dimfox.groups import build_group

    G = build_group("cyclic:64")
    span = ModuleSpan(G, CoeffRing.integers())
    span.lattice.add({40: 5})
    assert tracer._entry_bits_z(span) == 3
    assert tracer._entry_bits_z(ModuleSpan(G, CoeffRing.mod(4))) is None


def _refuse_constant(name):
    raise ValueError(f"{name} in the result line")


def _check_traced_run(workload):
    """A traced run installs the tracer and calls run_corpus serially and
    with jobs=2; its last stdout line must still be the result, in JSON
    with no NaN or Infinity, and every metric in it a number."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True, result
    unmeasured = {
        name: m
        for name, m in result["metrics"].items()
        if "absent" in m or isinstance(m["value"], bool) or not isinstance(m["value"], (int, float))
    }
    assert not unmeasured, f"metrics without a numeric value: {unmeasured}"


def test_traced_run_ends_with_a_strict_json_result():
    _check_traced_run("large")


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["corpus", "homology"])
def test_traced_run_of_workload_ends_with_a_strict_json_result(workload):
    _check_traced_run(workload)
