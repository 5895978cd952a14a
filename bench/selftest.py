#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the program).

    python3 bench/selftest.py

Run from the root of a checkout.  Kept out of the ``test_*.py`` pattern so
the program's test suite does not collect it.
"""

from __future__ import annotations

import json
import os
import random
import sys
import unittest
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SeedsGiveInstances(unittest.TestCase):
    def digests(self, workload, seed):
        return [[gen.digest(c.doc) for c in cases] for cases in workloads.rounds(workload, seed)]

    def test_same_seed_same_digests(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(self.digests(workload, 7), self.digests(workload, 7))
            self.assertNotEqual(self.digests(workload, 7), self.digests(workload, 8))

    def test_every_case_has_a_reference_for_its_instance(self):
        for workload in workloads.WORKLOADS:
            refs = run.load_refs(workload)
            for case in workloads.pool(workload):
                self.assertEqual(refs[case.id]["digest"], gen.digest(case.doc), case.id)

    def test_criterion_seeds_rebuild_recorded_instances(self):
        with open(os.path.join(HERE, "refs", "index-dp.json"), encoding="utf-8") as handle:
            recorded = json.load(handle)["criterion_digests"]
        for name, (seed, kwargs_of) in gen.CRITERION_FIRST_INSTANCES.items():
            rng = random.Random(seed)
            self.assertEqual(gen.digest(gen.random_election(rng, **kwargs_of(rng))), recorded[name])


class TailRule(unittest.TestCase):
    def test_ten_samples_above(self):
        self.assertEqual(run.tail([float(x) for x in range(1, 21)]), (10.0, 50.0, 20))
        value, pct, n = run.tail([float(x) for x in range(100, 0, -1)])
        self.assertEqual((value, pct, n), (90.0, 90.0, 100))
        self.assertEqual(sum(1 for x in range(1, 101) if x > value), 10)

    def test_short_runs_fall_back_to_the_smallest(self):
        self.assertEqual(run.tail([5.0] * 11)[0], 5.0)
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (1.0, 100 / 3, 3))


class WrongAnswersFail(unittest.TestCase):
    def setUp(self):
        self.case = next(c for c in workloads.pool("search") if c.call == "gamw")
        self.refs = run.load_refs("search")
        self.elections = run.parse_all([self.case])

    def test_reference_answer_passes(self):
        outcome = run.Outcome()
        run.inprocess_pass([self.case], self.elections, self.refs, outcome)
        self.assertEqual((outcome.attempted, outcome.failed), (1, 0))

    def test_injected_wrong_answer_is_a_failed_op(self):
        refs = dict(self.refs)
        wrong = dict(refs[self.case.id]["answer"], value="0/1")
        refs[self.case.id] = dict(refs[self.case.id], answer=wrong)
        outcome = run.Outcome()
        run.inprocess_pass([self.case], self.elections, refs, outcome)
        self.assertEqual((outcome.attempted, outcome.failed), (1, 1))

    def test_unexpected_error_is_a_failed_op(self):
        broken = replace(self.case, params=dict(self.case.params, budget=-1))
        outcome = run.Outcome()
        run.inprocess_pass([broken], {broken.id: self.elections[self.case.id]}, self.refs, outcome)
        self.assertEqual((outcome.attempted, outcome.failed), (1, 1))


class TracerRestores(unittest.TestCase):
    def snapshot(self):
        return {
            (name, key): value
            for name, module in sys.modules.items()
            if name == "liquidpower" or name.startswith("liquidpower.")
            for key, value in vars(module).items()
            if callable(value)
        }

    def test_install_then_restore(self):
        import liquidpower.cli  # noqa: F401  every import site
        from liquidpower import bribery, dp, weightmax

        before = self.snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(bribery.enumerate_neighborhood, before[("liquidpower.bribery", "enumerate_neighborhood")])
            self.assertIs(weightmax.enumerate_neighborhood, bribery.enumerate_neighborhood)
            self.assertIsNot(dp.build_forest, before[("liquidpower.dp", "build_forest")])
            self.assertIsNot(liquidpower.cli.banzhaf_dp, before[("liquidpower.cli", "banzhaf_dp")])
            case = next(c for c in workloads.pool("search") if c.call == "bribe")
            elections = run.parse_all([case])
            run.inprocess_pass([case], elections, run.load_refs("search"), run.Outcome(), tracer)
        finally:
            tracer.restore()
        self.assertEqual(self.snapshot(), before)
        summary = tracer.summary()
        self.assertEqual(summary["bribery.solve_bribery_exact"]["calls"], 1)
        self.assertGreater(tracer.counts["bribery.enumerate_neighborhood.items"], 0)
        for rec in summary.values():
            self.assertLessEqual(rec["self_s"], rec["s"] * (1 + 1e-9) + 1e-9)


class DeclaredMetrics(unittest.TestCase):
    def test_runner_and_benchmark_json_agree(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
        as_rows = lambda items: [(m["name"], m["unit"], m["better"]) for m in items]  # noqa: E731
        self.assertEqual(as_rows(spec["end_to_end"]), run.END_TO_END)
        self.assertEqual(as_rows(spec["per_layer"]), run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
