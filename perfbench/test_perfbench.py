"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from unittest import mock
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))


class ScriptedClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # outer [0, 10] holds inner [1, 3] and inner [4, 7]
        tracer = Tracer(clock=ScriptedClock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
        inner = tracer.wrap("inner", lambda: None)

        def body():
            inner()
            inner()

        tracer.wrap("outer", body)()
        summary = tracer.summary()
        self.assertEqual(summary["outer"], (5.0, 1))
        self.assertEqual(summary["inner"], (5.0, 2))
        self.assertEqual(tracer.root_time(), 10.0)
        self.assertEqual(list(tracer.span_parent), [-1, 0, 0])

    def test_install_reaches_every_import_path_and_uninstalls(self):
        cs = run.fresh_import()
        original = cs.solver.find_hom
        tracer = Tracer()
        tracer.install_function("cspdigraph.solver", "find_hom", "solver.find_hom")
        try:
            for module in (cs, cs.solver, cs.reverse):
                self.assertIsNot(module.find_hom, original)
            cs.reverse.stage2_decide(
                cs.parse_digraph("digraph g\nvertex a\nend\n"),
                cs.build_digraph(cs.parse_structure(workloads.k3_template())),
            )
        finally:
            tracer.uninstall()
        self.assertIs(cs.reverse.find_hom, original)
        self.assertEqual(tracer.summary()["solver.find_hom"][1], 1)


class RatioTest(unittest.TestCase):
    def test_item_is_divided_by_the_mean_of_the_loops_around_it(self):
        # loop 2 s, item a 10 s, loop 4 s, item b 6 s, loop 2 s
        ticks = iter([0.0, 2.0, 2.0, 12.0, 12.0, 16.0, 16.0, 22.0, 22.0, 24.0])

        class Fixed:
            reference = staticmethod(lambda: None)

            def run(self, cs, item):
                return item

        with mock.patch.object(run.time, "perf_counter", lambda: next(ticks)):
            p = run.Pass(None, Fixed(), ["a", "b"])
        self.assertEqual(p.item_s, [10.0, 6.0])
        self.assertEqual(p.ref_s, [2.0, 4.0, 2.0])
        self.assertEqual(p.item_ref, [10.0 / 3.0, 2.0])


class WrongVerdict(workloads.ForwardDecide):
    """A solver that answers NO on every YES instance."""

    name = "wrong-verdict"
    PLAN = ((workloads.K3, workloads.k3_two_tree, 10, 1, 1),)

    def run(self, cs, item):
        gadget, target, hom = super().run(cs, item)
        return gadget, target, None


class OracleGateTest(unittest.TestCase):
    def test_wrong_verdict_is_counted_and_posts_no_time(self):
        workloads.WORKLOADS[WrongVerdict.name] = WrongVerdict()
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(
                    ["--workload", WrongVerdict.name, "--seed", "3", "--seconds", "0.1"]
                )
        finally:
            del workloads.WORKLOADS[WrongVerdict.name]
        lines = out.getvalue().splitlines()
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"]
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"] * 2, result["attempted"])
        self.assertEqual(result["metrics"], {})
        self.assertEqual(record["error_rate"], 0.5)


class SeedTest(unittest.TestCase):
    def inputs(self, workload, seed):
        cs = run.fresh_import()
        return [(item.label, item.inputs) for item in workload.setup(cs, seed)]

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in workloads.WORKLOADS.values():
            with self.subTest(workload.name):
                first = self.inputs(workload, 5)
                self.assertEqual(first, self.inputs(workload, 5))
                self.assertNotEqual(first, self.inputs(workload, 6))


class GeneratorTest(unittest.TestCase):
    def test_small_planted_instances_always_fill(self):
        # the smallest sizes used (low components) across many seeds
        for seed in range(300):
            for arity, colours in ((2, 3), (3, 2)):
                _, rows = workloads._planted(workloads.Lcg(seed), 6, 4, arity, colours, (), (), 0)
                self.assertEqual(len(rows), 4)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units()
        )
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
