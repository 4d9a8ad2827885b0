#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Checks the reference comparison, the trace bookkeeping and BENCHMARK.json
against run.py, then builds rair_perfbench like run.py does and makes a
short-window traced smoke run of every workload.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def alter_first_apl(line):
    """The same record with its first APL nudged in the last digits."""
    head, tail = line.split('"app_apl":[', 1)
    first, rest = tail.split(",", 1)
    return head + '"app_apl":[' + repr(float(first) + 1e-9) + "," + rest


class ReferenceCheck(unittest.TestCase):
    def test_reference_matches_itself(self):
        for workload in run.WORKLOADS:
            ref = run.load_reference(workload)
            self.assertEqual(run.check(ref, ref, exact=True)[:2], (len(ref), 0))

    def test_one_altered_apl_is_one_failure(self):
        for workload in run.WORKLOADS:
            ref = run.load_reference(workload)
            i = next(i for i, line in enumerate(ref) if '"app_apl"' in line)
            altered = list(ref)
            altered[i] = alter_first_apl(ref[i])
            self.assertNotEqual(altered[i], ref[i])
            json.loads(altered[i])
            attempted, failed, problems = run.check(ref, altered, exact=True)
            self.assertEqual((attempted, failed), (len(ref), 1), problems)

    def test_other_seeds_check_values_drain_and_conservation(self):
        ref = run.load_reference("faults_retx")
        self.assertEqual(run.check(ref, ref, exact=False)[1], 0)
        i = next(i for i, line in enumerate(ref) if '"type":"cell"' in line)
        stalled = list(ref)
        stalled[i] = ref[i].replace('"termination":"drained"',
                                    '"termination":"drain_limit"')
        self.assertEqual(run.check(stalled, ref, exact=False)[1], 1)
        rec = json.loads(ref[i])
        leaky = list(ref)
        leaky[i] = ref[i].replace(
            f'"packets_delivered":{rec["packets_delivered"]}',
            f'"packets_delivered":{rec["packets_created"] + 1}')
        self.assertEqual(run.check(leaky, ref, exact=False)[1], 1)
        j = next(i for i, line in enumerate(ref) if '"type":"value"' in line)
        moved = list(ref)
        moved[j] = ref[j].replace('"value":0.', '"value":0.1')
        self.assertEqual(run.check(moved, ref, exact=False)[1], 1)
        self.assertEqual(run.check(ref[1:], ref, exact=False)[1], 1)


class TraceBookkeeping(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            {"id": 0, "parent": -1, "name": "campaign.workload",
             "start_ns": 0, "end_ns": 100},
            {"id": 1, "parent": 0, "name": "campaign.run",
             "start_ns": 10, "end_ns": 90},
            {"id": 2, "parent": 1, "name": "sim.cell",
             "start_ns": 10, "end_ns": 60},
            {"id": 3, "parent": 1, "name": "sim.cell",
             "start_ns": 40, "end_ns": 80},
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs[0] * 1e9, 20)
        self.assertAlmostEqual(selfs[1] * 1e9, 10)
        layers, coverage, min_self = run.trace_summary(spans, 100e-9)
        self.assertAlmostEqual(coverage, 0.8)
        self.assertGreaterEqual(min_self, 0)
        self.assertAlmostEqual(layers["sim"] * 1e9, 90)

    def test_child_outliving_its_parent_shows_negative(self):
        spans = [
            {"id": 0, "parent": -1, "name": "a.workload", "start_ns": 0,
             "end_ns": 10},
            {"id": 1, "parent": 0, "name": "b.x", "start_ns": 0,
             "end_ns": 20},
        ]
        self.assertLess(run.trace_summary(spans, 1.0)[2], 0)


class BenchmarkJson(unittest.TestCase):
    def test_metrics_match_run_py(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertLessEqual({w["name"] for w in bench["workloads"]},
                             set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)


class Smoke(unittest.TestCase):
    """A short-window traced run of each workload: outputs drain and
    conserve packets, the span file parses, no self time is negative and
    the top-level spans cover the workload."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_workloads(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload), \
                    tempfile.TemporaryDirectory() as tmp:
                outcome, lines, spans = run.run_child(
                    self.binary, workload, 7, True, os.path.join(tmp, "w"),
                    smoke=True)
                self.assertTrue(lines)
                for line in lines:
                    rec = json.loads(line)
                    self.assertIn(rec["type"], ("value", "cell", "scenario"))
                    if rec["type"] != "value":
                        self.assertTrue(run.record_ok(rec), line)
                self.assertLessEqual(set(outcome["layer"]), set(run.PER_LAYER))
                _, coverage, min_self = run.trace_summary(
                    spans, outcome["wall_s"])
                self.assertGreaterEqual(min_self, 0)
                self.assertGreaterEqual(coverage, 0.95)
                self.assertGreater(outcome["wall_s"], 0)
                self.assertGreater(outcome["setup_s"], 0)


if __name__ == "__main__":
    unittest.main()
