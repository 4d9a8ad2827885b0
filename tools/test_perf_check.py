#!/usr/bin/env python3
"""Tests for perf_check.py's baseline gate.

    python3 tools/test_perf_check.py

Runs perf_check.py against the committed BENCH_core_hotpath.json and
against copies with host-context fields stripped.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERF_CHECK = os.path.join(HERE, "perf_check.py")
BASELINE = os.path.join(ROOT, "BENCH_core_hotpath.json")


def run_check(baseline, current):
    return subprocess.run(
        [sys.executable, PERF_CHECK, "--baseline", baseline,
         "--current", current],
        capture_output=True, text=True, check=False)


class BaselineContextTest(unittest.TestCase):
    def setUp(self):
        with open(BASELINE) as fh:
            self.data = json.load(fh)
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, data):
        path = os.path.join(self.tmp.name, "baseline.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def test_committed_baseline_is_accepted(self):
        result = run_check(BASELINE, BASELINE)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_each_missing_field_is_refused(self):
        for key in ("usable_cores", "build_type", "compiler"):
            with self.subTest(key=key):
                data = json.loads(json.dumps(self.data))
                del data["context"][key]
                result = run_check(self.write(data), BASELINE)
                self.assertNotEqual(result.returncode, 0)
                self.assertIn("baseline context lacks", result.stderr)
                self.assertIn(key, result.stderr)

    def test_missing_context_is_refused(self):
        data = dict(self.data)
        del data["context"]
        result = run_check(self.write(data), BASELINE)
        self.assertNotEqual(result.returncode, 0)
        for key in ("usable_cores", "build_type", "compiler"):
            self.assertIn(key, result.stderr)


if __name__ == "__main__":
    unittest.main()
