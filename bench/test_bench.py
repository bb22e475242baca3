"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import os
import signal
import time
import types
import unittest
from unittest import mock

import layers
import run
from workloads import WORKLOADS, pg23_graph


class FakeWorkload:
    """Ops are (seconds to sleep, right answer?) pairs, one pass."""

    budget_s = 0.2

    def __init__(self, ops):
        self.ops = ops

    def passes(self, state):
        while True:
            yield self.ops

    def run(self, state, op):
        time.sleep(op[0])
        return op[1]

    def check(self, state, op, result):
        return result


class HarnessTest(unittest.TestCase):

    def setUp(self):
        self.previous = signal.signal(signal.SIGALRM, run._alarm)

    def tearDown(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def test_self_time_of_nested_call(self):
        clock = [0.0]
        tracer = layers.Tracer()

        def inner():
            clock[0] += 3.0

        traced_inner = tracer.wrap("inner", inner)

        def outer():
            clock[0] += 2.0
            traced_inner()
            traced_inner()
            clock[0] += 1.0

        traced_outer = tracer.wrap("outer", outer)
        fake_time = types.SimpleNamespace(perf_counter=lambda: clock[0])
        with mock.patch.object(layers, "time", fake_time):
            tracer.active = True
            traced_outer()
        self.assertEqual(tracer.totals, {
            "outer.calls": 1, "outer.self_s": 3.0,
            "inner.calls": 2, "inner.self_s": 6.0,
        })

    def test_inactive_tracer_records_nothing(self):
        tracer = layers.Tracer()
        self.assertEqual(tracer.wrap("f", lambda x: x + 1)(1), 2)
        self.assertEqual(tracer.totals, {})

    def test_timed_out_op_counts_as_failed(self):
        result = run.measure(FakeWorkload([(5.0, True), (0.0, True)]), None, 0)
        self.assertEqual(result["outcomes"],
                         {"ok": 1, "wrong": 0, "timeout": 1, "error": 0})
        self.assertLess(result["busy_s"], 1.0)

    def test_wrong_answer_counts_as_failed(self):
        result = run.measure(FakeWorkload([(0.0, False), (0.0, True)]), None, 0)
        self.assertEqual(result["outcomes"],
                         {"ok": 1, "wrong": 1, "timeout": 0, "error": 0})
        self.assertEqual(run.ops_per_s(result) * result["busy_s"], 1)

    def test_tail_percentile_keeps_ten_samples_above(self):
        for pass_ops, p in ((20, 50), (40, 75), (70, 75), (100, 90), (407, 95),
                            (1000, 99)):
            self.assertEqual(run.tail_percentile(pass_ops), p)
        samples = list(range(1, 101))
        self.assertEqual(run.percentile(samples, 90), 90)
        self.assertEqual(run.percentile(samples, 50), 50)
        self.assertEqual(run.median_band(samples), 50.5)
        self.assertEqual(run.median_band([3.0]), 3.0)


class WorkloadTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.ngons = run.import_package()

    def first_passes(self, workload, seed):
        passes = workload.passes(workload.setup(self.ngons, seed))
        return [next(passes), next(passes)]

    def test_same_seed_gives_same_inputs(self):
        for workload in WORKLOADS.values():
            with self.subTest(workload=workload.name):
                first = self.first_passes(workload, 7)
                self.assertEqual(first, self.first_passes(workload, 7))
                self.assertNotEqual(first, self.first_passes(workload, 8))

    def test_pg23_is_a_thick_projective_plane(self):
        g = pg23_graph(self.ngons)
        self.assertEqual(len(g.part_vertices(0)), 13)
        self.assertEqual(len(g.part_vertices(1)), 13)
        self.assertTrue(all(len(g.neighbors(v)) == 4 for v in g.vertices))
        self.assertEqual(self.ngons.is_generalized_ngon(g, thick=True), (True, None))

    def test_benchmark_json_matches_the_harness(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as fh:
            spec = json.load(fh)
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {name: w.why for name, w in WORKLOADS.items()})
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         layers.LAYER_METRICS)
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"ops_per_s", "op_p50_s", "op_tail_s", "setup_s",
                          "peak_rss_mb"})


if __name__ == "__main__":
    unittest.main()
