"""The benchmark's traced pass wraps package functions by name.

`perfbench/run.py --trace 1` looks up every `(module, function)` pair of
its FUNCTIONS table with getattr, so renaming or nesting one of those
functions would crash the traced run.  The table is read with ast, so
that test neither imports nor changes the benchmark.  The benchmark's
own unit tests, which call package functions too, run in a subprocess.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "perfbench" / "run.py"


def _functions_table():
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no FUNCTIONS table in {RUN_PY}")


def test_traced_functions_are_module_level_callables():
    table = _functions_table()
    assert table
    for module, fn, _ in table:
        mod = importlib.import_module(f"cspdigraph.{module}")
        assert callable(vars(mod).get(fn)), f"cspdigraph.{module}.{fn}"


def test_benchmark_unit_tests_pass():
    """The benchmark's own unittest suite, which calls package functions."""
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize(
    "workload", ["forward-decide", "reverse-compile", "lift-check", "translate-bulk"]
)
def test_traced_benchmark_pass_runs(workload):
    """One traced pass of each workload: every function and method the
    pass wraps must be found, and no item may fail under the wrappers."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["failed"] == 0
