#!/usr/bin/env python3
"""Tests for hostile `trajkit` flags: a flag value that the query or
cross-validation code cannot honour, or that is not a number of the
flag's type, is a clean exit 2 naming the flag,
never a signal (a failed CHECK aborts) or a silent wrong answer.

Usage: trajkit_cli_flags_test.py PATH/TO/trajkit
"""

import os
import signal
import subprocess
import sys
import tempfile
import unittest

TRAJKIT = None


def run(*args):
    return subprocess.run([TRAJKIT, *args], capture_output=True, text=True)


class TrajkitCliFlagsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory()
        directory = cls._tmp.name
        # 4 users over 2 days: a 25-segment store and a 4-user dataset.
        cls.features = os.path.join(directory, "features.csv")
        cls.store = os.path.join(directory, "store.log")
        model = os.path.join(directory, "model")
        synthetic = ("--synthetic", "--users=4", "--days=2")
        for args in (("features", *synthetic, f"--out={cls.features}"),
                     ("train", f"--dataset={cls.features}",
                      f"--model={model}", "--trees=5"),
                     ("serve-replay", *synthetic, f"--model={model}",
                      f"--store_out={cls.store}")):
            result = run(*args)
            if result.returncode != 0:
                raise RuntimeError(f"trajkit {args[0]} failed:\n"
                                   f"{result.stdout}{result.stderr}")

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def assert_rejected(self, flag, *args):
        result = run(*args)
        if result.returncode < 0:
            self.fail(f"{args} died of "
                      f"{signal.Signals(-result.returncode).name}:\n"
                      f"{result.stderr}")
        self.assertEqual(result.returncode, 2,
                         f"{args}:\n{result.stdout}{result.stderr}")
        self.assertIn(flag, result.stderr)

    def test_hotspots_nan_is_rejected(self):
        self.assert_rejected("--hotspots", "query", f"--store={self.store}",
                             "--hotspots=nan")

    def test_hotspots_below_floor_is_rejected(self):
        # 1e-300 used to cast an out-of-range double to int64_t and put
        # every segment in cell -2^63.
        self.assert_rejected("--hotspots", "query", f"--store={self.store}",
                             "--hotspots=1e-300")

    def test_hotspots_infinite_is_rejected(self):
        self.assert_rejected("--hotspots", "query", f"--store={self.store}",
                             "--hotspots=inf")

    def test_valid_hotspots_still_answer(self):
        result = run("query", f"--store={self.store}", "--hotspots=0.01",
                     "--oracle")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("oracle check: identical", result.stdout)

    def test_one_fold_is_rejected(self):
        self.assert_rejected("--folds", "evaluate",
                             f"--dataset={self.features}", "--folds=1")

    def test_more_user_folds_than_users_is_rejected(self):
        self.assert_rejected("--folds", "evaluate",
                             f"--dataset={self.features}", "--scheme=user",
                             "--folds=5")

    def test_more_folds_than_samples_is_rejected(self):
        self.assert_rejected("--folds", "evaluate",
                             f"--dataset={self.features}", "--folds=100000")

    def test_folds_beyond_int_is_rejected(self):
        # 2^32 + 2 used to narrow through int and run 2-fold CV.
        self.assert_rejected("--folds", "evaluate",
                             f"--dataset={self.features}",
                             "--folds=4294967298")

    def test_malformed_folds_is_rejected(self):
        # Used to fall back to the default and run 5-fold CV.
        self.assert_rejected("--folds", "evaluate",
                             f"--dataset={self.features}", "--folds=abc")

    def test_malformed_hotspots_is_rejected(self):
        # Used to fall back to the default 0.01 deg grid.
        self.assert_rejected("--hotspots", "query", f"--store={self.store}",
                             "--hotspots=abc")

    def test_valid_folds_still_evaluate(self):
        result = run("evaluate", f"--dataset={self.features}",
                     "--scheme=user", "--folds=4", "--scale=0.2")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("user_oriented 4-fold CV", result.stdout)


if __name__ == "__main__":
    TRAJKIT = sys.argv.pop(1)
    unittest.main()
