"""Seeded benchmark of the cspdigraph package, one workload per run.

    python3 perfbench/run.py --workload forward-decide --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src``.  Each
pass over the workload's fixed item set follows a fresh set-up (import,
input generation and the oracle's answers), timed on its own, and is
followed, outside its timing, by a check of every output against the
oracle.  Passes repeat until ``--seconds`` have gone by.  With ``--trace 1``
one extra pass runs with the package's public functions wrapped in spans,
and the per-layer figures come from that pass only.

Before the first item and after every item the benchmark also times the
workload's ``reference`` loop, fixed plain Python that does not touch the
package.  The host is shared and its speed swings by up to 1.8x, for
seconds or for minutes; an item's time divided by the mean of the loop
times just before and just after it stays within a few percent across
those swings.  ``wall_ref`` and ``slowest_item_ref`` are built from such
ratios, in units of one loop time (``ref``); the raw seconds are in the run
record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the run record (git sha, Python version, nproc, load average at start,
every pass time).  Records and spans are also written to ``.perfbench-out``.
Any wrong answer or exception makes the run exit 1, and a wrong answer
posts no time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE = "cspdigraph"
MODULES = ("builder", "forward", "lifting", "merge", "reverse", "solver", "structures")

# (module, function, calls reported too); every one reports self_s
FUNCTIONS = (
    ("solver", "find_hom", True),
    ("solver", "interpretable_at_levels", True),
    ("reverse", "components", False),
    ("reverse", "assign_levels", False),
    ("reverse", "stage2_decide", True),
    ("reverse", "internal_components", False),
    ("reverse", "boundary_subgraph", False),
    ("reverse", "gamma", True),
    ("reverse", "build_objects", False),
    ("reverse", "sim_closure", False),
    ("reverse", "assemble_instance", False),
    ("reverse", "reverse_instance", False),
    ("builder", "build_digraph", False),
    ("builder", "build_path", True),
    ("lifting", "lift_all", False),
    ("lifting", "classify", True),
    ("solver", "is_polymorphism", False),
    ("solver", "satisfies", False),
    ("solver", "find_operations", False),
    ("structures", "parse_structure", False),
    ("structures", "parse_digraph", False),
    ("structures", "serialize_structure", False),
    ("structures", "serialize_digraph", False),
    ("merge", "merge_template", False),
    ("merge", "merge_instance", False),
    ("merge", "unmerge_instance", False),
    ("forward", "forward_instance", False),
)
LIFTED_CALL = "lifting.LiftedOp.__call__"
CASES = ("1a", "1b", "2a", "2b", "2c", "3a", "3b", "3c")


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for module, fn, with_calls in FUNCTIONS:
        units[f"{module}.{fn}.self_s"] = "s"
        if with_calls:
            units[f"{module}.{fn}.calls"] = "count"
    units[f"{LIFTED_CALL}.self_s"] = "s"
    units[f"{LIFTED_CALL}.calls"] = "count"
    for case in CASES:
        units[f"lifting.case.{case}.count"] = "count"
    units["forward.gadget_vertices"] = "count"
    units["forward.gadget_edges"] = "count"
    units["bench.tracing_overhead_s"] = "s"
    units["bench.unattributed_s"] = "s"
    return units


END_TO_END = {"setup_s": "s", "wall_ref": "ref", "slowest_item_ref": "ref", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Set-up


def fresh_import():
    """Import the package anew, so set-up includes import time."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cs = importlib.import_module(PACKAGE)
    for module in MODULES:
        importlib.import_module(f"{PACKAGE}.{module}")
    return cs


def run_record(args) -> dict:
    sha = "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Passes


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


class Pass:
    """One timed pass over every item; ``check`` compares the outputs later."""

    def __init__(self, cs, workload, items):
        clock = time.perf_counter
        gc.collect()
        self.item_s: list[float] = []
        self.errors: list[str] = []
        self._outputs = []
        self.ref_s = [timed(workload.reference)]
        for item in items:
            t0 = clock()
            try:
                self._outputs.append(workload.run(cs, item))
            except Exception as exc:  # a crash is a wrong answer, not a stop
                self._outputs.append(exc)
            self.item_s.append(clock() - t0)
            self.ref_s.append(timed(workload.reference))
        self.wall_s = sum(self.item_s)
        # each item against the host speed around it
        self.item_ref = [
            t / ((self.ref_s[i] + self.ref_s[i + 1]) / 2) for i, t in enumerate(self.item_s)
        ]

    def check(self, cs, workload, items) -> "Pass":
        for item, out in zip(items, self._outputs):
            if isinstance(out, Exception):
                self.errors.append(f"{item.label}: {type(out).__name__}: {out}")
            elif not workload.check(cs, item, out):
                self.errors.append(f"{item.label}: wrong answer")
        self._outputs = []
        return self


def install(tracer: Tracer, cs) -> None:
    def on_classify(tr, case):
        tr.count(f"lifting.case.{case.tag}.count")

    def on_forward(tr, gadget):
        tr.count("forward.gadget_vertices", len(gadget.vertices))
        tr.count("forward.gadget_edges", len(gadget.edges))

    hooks = {"classify": on_classify, "forward_instance": on_forward}
    for module, fn, _ in FUNCTIONS:
        tracer.install_function(f"{PACKAGE}.{module}", fn, f"{module}.{fn}", hooks.get(fn))
    tracer.install_method(cs.lifting.LiftedOp, "__call__", LIFTED_CALL)


def layer_metrics(tracer: Tracer, traced: Pass, untraced_wall: float) -> dict[str, float]:
    summary = tracer.summary()
    values: dict[str, float] = {}
    for name in per_layer_units():
        base, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = summary.get(base, (0.0, 0))[0]
        elif field == "calls":
            values[name] = summary.get(base, (0.0, 0))[1]
        else:
            values[name] = tracer.counts.get(name, 0)
    values["bench.tracing_overhead_s"] = traced.wall_s - untraced_wall
    values["bench.unattributed_s"] = traced.wall_s - tracer.root_time()
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run_record(args)
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))
    setup_s: list[float] = []

    def set_up():
        t0 = time.perf_counter()
        cs = fresh_import()
        items = workload.setup(cs, args.seed)
        setup_s.append(time.perf_counter() - t0)
        return cs, items

    started = time.perf_counter()
    try:
        cs, items = set_up()
    except ImportError as exc:
        print(f"cannot import {PACKAGE} from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    passes: list[Pass] = []
    # A fresh set-up precedes every pass, so set-up times are sampled
    # across the whole run as pass times are.  Start another set-up and
    # pass only while they should end within --seconds, so a run's length
    # stays near --seconds even when one pass takes ten.
    while not passes or (
        time.perf_counter() - started + setup_s[-1] + passes[-1].wall_s <= args.seconds
    ):
        if passes:
            cs, items = set_up()
        passes.append(Pass(cs, workload, items).check(cs, workload, items))
    traced = None
    if args.trace:
        tracer = Tracer()
        install(tracer, cs)
        try:
            traced = Pass(cs, workload, items)
        finally:
            tracer.uninstall()
        traced.check(cs, workload, items)

    done = passes + ([traced] if traced else [])
    errors = [e for p in done for e in p.errors]
    attempted = len(items) * len(done)
    wall = statistics.median(p.wall_s for p in passes)
    slowest = statistics.median(max(p.item_s) for p in passes)
    ref = statistics.median(r for p in passes for r in p.ref_s)
    item_ref = [statistics.median(p.item_ref[i] for p in passes) for i in range(len(items))]
    if args.trace:
        metrics = layer_metrics(tracer, traced, wall)
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_ref": sum(item_ref),
            "slowest_item_ref": max(item_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    record.update(
        items=[item.label for item in items],
        setup_s=setup_s,
        wall_s=wall,
        slowest_item_s=slowest,
        ref_s=ref,
        pass_wall_s=[p.wall_s for p in passes],
        pass_ref_s=[statistics.median(p.ref_s) for p in passes],
        item_ref=item_ref,
        item_s=[p.item_s for p in done],
        traced_wall_s=traced.wall_s if traced else None,
        error_rate=len(errors) / attempted,
        errors=errors,
        metrics=metrics if not errors else {},
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        tracer.write(OUT, args.workload)
    for line in errors:
        print(line, file=sys.stderr)
    print(json.dumps({"record": record}))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {}
        if errors
        else {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
