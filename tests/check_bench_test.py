#!/usr/bin/env python3
"""Tests for tools/check_bench.py: the gate passes a run within bounds and
fails a regression or a missing key, --update --keys re-records only what
it matches and drops tracked keys the run no longer emits, an unmatched
pattern is an error, and --verify_baseline rejects a hand-formatted file.

Usage: check_bench_test.py PATH/TO/check_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = None

HOST = {"nproc": "4", "compiler": "GNU 12.2.0", "build_type": "Release"}


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.baseline = self.path("baseline.json")
        # A canonical baseline, written the only supported way: --update.
        result = self.run_checker(
            "--update", self.timing("old", fit_s=0.30, predict_s=0.010,
                                    pointer_s=0.020))
        self.assertEqual(result.returncode, 0, result.stderr)

    def tearDown(self):
        self._tmp.cleanup()

    def path(self, name):
        return os.path.join(self._tmp.name, name)

    def timing(self, name, host=None, **timings):
        """Writes a TimingJson artifact of harness "micro_ml"."""
        path = self.path(f"{name}.json")
        with open(path, "w") as fh:
            json.dump({"harness": "micro_ml", "threads": 1,
                       "timings_s": timings, "host": host or HOST}, fh)
        return path

    def run_checker(self, *args):
        return subprocess.run(
            [sys.executable, CHECKER, f"--baseline={self.baseline}", *args],
            capture_output=True, text=True)

    def metrics(self):
        with open(self.baseline) as fh:
            return json.load(fh)["artifacts"]["micro_ml"]["metrics"]

    def test_run_within_bounds_passes(self):
        result = self.run_checker(
            self.timing("run", fit_s=0.31, predict_s=0.011, pointer_s=0.02))
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("perf gate passed", result.stdout)

    def test_regression_fails(self):
        result = self.run_checker(
            self.timing("run", fit_s=0.60, predict_s=0.010, pointer_s=0.02))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("micro_ml/fit_s", result.stderr)
        self.assertIn("> 1.25x limit", result.stderr)

    def test_missing_tracked_key_fails(self):
        result = self.run_checker(
            self.timing("run", fit_s=0.30, predict_s=0.010))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("micro_ml/pointer_s: tracked metric missing",
                      result.stderr)

    def test_keys_rerecords_only_matching_metrics(self):
        result = self.run_checker(
            "--update", "--keys=micro_ml/predict_*",
            self.timing("run", fit_s=0.10, predict_s=0.005, pointer_s=0.01))
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertEqual(self.metrics(), {"fit_s": 0.30, "pointer_s": 0.020,
                                          "predict_s": 0.005})
        self.assertEqual(self.run_checker("--verify_baseline").returncode, 0)

    def test_keys_drops_tracked_metric_the_run_no_longer_emits(self):
        with open(self.baseline) as fh:
            before = json.load(fh)["artifacts"]["micro_ml"]["host"]
        result = self.run_checker(
            "--update", "--keys=micro_ml/pointer_*",
            self.timing("run", host=dict(HOST, nproc="8"), fit_s=0.10,
                        predict_s=0.005))
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("dropped micro_ml/pointer_s", result.stdout)
        self.assertIn("0 of 2 tracked metrics re-recorded, 1 dropped",
                      result.stdout)
        # Nothing else moves: no value, and no host fact, since no metric
        # was re-recorded.
        self.assertEqual(self.metrics(), {"fit_s": 0.30, "predict_s": 0.010})
        with open(self.baseline) as fh:
            self.assertEqual(json.load(fh)["artifacts"]["micro_ml"]["host"],
                             before)
        self.assertEqual(self.run_checker("--verify_baseline").returncode, 0)

    def test_unmatched_pattern_is_an_error(self):
        with open(self.baseline) as fh:
            before = fh.read()
        result = self.run_checker(
            "--update", "--keys=micro_ml/nope_*",
            self.timing("run", fit_s=0.10, predict_s=0.005, pointer_s=0.01))
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("match no metric", result.stderr)
        with open(self.baseline) as fh:
            self.assertEqual(fh.read(), before)

    def test_verify_baseline_rejects_hand_formatted_file(self):
        self.assertEqual(self.run_checker("--verify_baseline").returncode, 0)
        with open(self.baseline) as fh:
            doc = json.load(fh)
        with open(self.baseline, "w") as fh:
            json.dump(doc, fh, indent=4)
        result = self.run_checker("--verify_baseline")
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("differs from its --update serialisation",
                      result.stderr)


if __name__ == "__main__":
    CHECKER = sys.argv.pop(1)
    unittest.main()
