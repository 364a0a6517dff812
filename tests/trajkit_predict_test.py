#!/usr/bin/env python3
"""Tests for `trajkit predict` input checks: a CSV whose feature count or
class names do not fit the model is a clean exit 1 naming both numbers,
and a matching CSV still predicts.

Usage: trajkit_predict_test.py PATH/TO/trajkit
"""

import csv
import os
import subprocess
import sys
import tempfile
import unittest

TRAJKIT = None


def run(*args):
    return subprocess.run([TRAJKIT, *args], capture_output=True, text=True)


class TrajkitPredictTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory()
        cls.dir = cls._tmp.name
        cls.features = os.path.join(cls.dir, "features.csv")
        cls.model = os.path.join(cls.dir, "model")
        corpus = os.path.join(cls.dir, "corpus")
        for args in (("generate", f"--out={corpus}", "--users=2", "--days=1"),
                     ("features", f"--data={corpus}",
                      f"--out={cls.features}"),
                     ("train", f"--dataset={cls.features}",
                      f"--model={cls.model}", "--trees=5")):
            result = run(*args)
            if result.returncode != 0:
                raise RuntimeError(f"trajkit {args[0]} failed:\n"
                                   f"{result.stdout}{result.stderr}")
        with open(cls.features, newline="") as fh:
            cls.rows = list(csv.reader(fh))

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def write_csv(self, name, rows):
        path = os.path.join(self.dir, name)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return path

    def predict(self, dataset):
        return run("predict", f"--dataset={dataset}", f"--model={self.model}",
                   f"--output={os.path.join(self.dir, 'out.csv')}")

    def test_matching_csv_predicts(self):
        result = self.predict(self.features)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("accuracy vs. CSV labels", result.stdout)

    def test_narrower_csv_names_both_feature_counts(self):
        header = self.rows[0]
        width = sum(1 for name in header if not name.startswith("__"))
        narrow = self.write_csv("narrow.csv",
                                [row[1:] for row in self.rows])
        result = self.predict(narrow)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn(f"has {width - 1} features but the model was trained "
                      f"on {width}", result.stderr)

    def test_fewer_class_names_than_model_classes(self):
        header = self.rows[0]
        label = header.index("__label")
        labels = [int(row[label]) for row in self.rows[1:]]
        # The CSV's class names run up to its largest label, so a CSV of
        # label-0 rows names one class while the model predicts them all.
        only_zero = [header] + [row for row in self.rows[1:]
                                if int(row[label]) == 0]
        self.assertGreater(len(only_zero), 1, "corpus has no label-0 row")
        dataset = self.write_csv("one_class.csv", only_zero)
        result = self.predict(dataset)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn(f"the model predicts {max(labels) + 1} classes but "
                      f"{dataset} names only 1", result.stderr)


if __name__ == "__main__":
    TRAJKIT = sys.argv.pop(1)
    unittest.main()
