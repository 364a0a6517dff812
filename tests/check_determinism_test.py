#!/usr/bin/env python3
"""Tests for tools/check_determinism.py: it passes an agreeing leg and
fails each kind of divergence it exists to catch.

Usage: check_determinism_test.py PATH/TO/check_determinism.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = None

PREDICTIONS = "segment,predicted,true\n0,2,2\n1,4,4\n2,0,1\n"
SEGMENTS = b"TKSEGLG1" + bytes(range(256)) * 2
SUMMARY = ("lifecycle: 40 submitted = 40 evaluated + 0 shed\n"
           "training: 5 steps, 1 promotions; serving ct-v2\n")
AGGREGATES = {
    "serve.batch_predictor.requests": 40,
    "serve.sessions.points_ingested": 1000,
    "serve.shed_total.queue_full": 2,
    "serve.shed_total.preempted": 1,
}


def metrics(shards, batches=30):
    """A --metrics_json dump whose shard mirrors split the aggregates."""
    counters = dict(AGGREGATES)
    # Batch composition depends on dispatch timing: not compared.
    counters["serve.batch_predictor.batches"] = batches
    for shard in range(shards):
        def part(total):
            return total // shards + (shard < total % shards)
        prefix = f"serve.shard{shard}."
        counters[prefix + "batch_predictor.requests"] = part(40)
        counters[prefix + "sessions.points_ingested"] = part(1000)
        counters[prefix + "shed_total"] = part(3)
    return {"counters": counters, "gauges": {"serve.queue_depth": shards},
            "info": {"serve.registry.active_version": "ct-v2"}}


class CheckDeterminismTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.leg = os.path.join(self._tmp.name, "ct")
        os.mkdir(self.leg)
        for config, shards, batches in (("t1_s1", 1, 30), ("t8_s1", 1, 27),
                                        ("t1_s2", 2, 33), ("t8_s8", 8, 40)):
            self.write(config, "predictions.csv", PREDICTIONS)
            self.write(config, "summary.txt", SUMMARY)
            self.write(config, "segments.log", SEGMENTS)
            self.write(config, "metrics.json",
                       json.dumps(metrics(shards, batches)))

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, config, artifact, content):
        mode = "wb" if isinstance(content, bytes) else "w"
        with open(os.path.join(self.leg, f"{config}.{artifact}"), mode) as f:
            f.write(content)

    def edit_counters(self, config, edit):
        path = os.path.join(self.leg, f"{config}.metrics.json")
        with open(path) as f:
            doc = json.load(f)
        edit(doc["counters"])
        with open(path, "w") as f:
            json.dump(doc, f)

    def run_checker(self):
        return subprocess.run([sys.executable, CHECKER, self.leg],
                              capture_output=True, text=True)

    def assert_fails(self, needle):
        result = self.run_checker()
        self.assertNotEqual(result.returncode, 0, result.stdout)
        self.assertIn(needle, result.stderr)

    def test_agreeing_leg_passes(self):
        result = self.run_checker()
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("4 runs agree with t1_s1", result.stdout)

    def test_one_byte_predictions_diff_fails(self):
        self.write("t1_s2", "predictions.csv", PREDICTIONS.replace("0,1", "0,2"))
        self.assert_fails("t1_s2.predictions.csv diverges")

    def test_one_byte_segment_log_diff_fails(self):
        broken = bytearray(SEGMENTS)
        broken[300] ^= 0x01
        self.write("t8_s1", "segments.log", bytes(broken))
        self.assert_fails("t8_s1.segments.log diverges at byte 300")

    def test_missing_trailing_newline_fails(self):
        self.write("t8_s8", "summary.txt", SUMMARY[:-1])
        self.assert_fails("t8_s8.summary.txt diverges")

    def test_missing_artifact_fails(self):
        os.remove(os.path.join(self.leg, "t8_s1.summary.txt"))
        self.assert_fails("t8_s1 has artifacts")

    def test_changed_deterministic_counter_fails(self):
        def edit(counters):
            counters["serve.shed_total.preempted"] = 2
            counters["serve.shed_total.queue_full"] = 1
        self.edit_counters("t8_s1", edit)
        self.assert_fails("serve.shed_total.preempted = 2 != 1")

    def test_changed_active_version_fails(self):
        path = os.path.join(self.leg, "t1_s2.metrics.json")
        doc = metrics(2)
        doc["info"]["serve.registry.active_version"] = "ct-v3"
        self.write("t1_s2", "metrics.json", json.dumps(doc))
        self.assert_fails(f"{path}: serve.registry.active_version")

    def test_mirrors_that_do_not_sum_fail(self):
        def edit(counters):
            counters["serve.shard3.batch_predictor.requests"] += 1
        self.edit_counters("t8_s8", edit)
        self.assert_fails("sum over shards of serve.batch_predictor.requests")

    def test_unknown_shard_counter_fails(self):
        def edit(counters):
            counters["serve.shard0.sessions.mystery"] = 0
        self.edit_counters("t1_s2", edit)
        self.assert_fails("unknown shard-labelled counter")

    def test_sharded_run_without_mirrors_fails(self):
        def edit(counters):
            for key in [k for k in counters if k.startswith("serve.shard")]:
                del counters[key]
        self.edit_counters("t8_s8", edit)
        self.assert_fails("no serve.shard<i>.* counters")

    def test_leg_without_reference_fails(self):
        for artifact in ("predictions.csv", "summary.txt", "segments.log",
                         "metrics.json"):
            os.remove(os.path.join(self.leg, f"t1_s1.{artifact}"))
        result = self.run_checker()
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("need t1_s1.metrics.json", result.stderr)


if __name__ == "__main__":
    CHECKER = sys.argv.pop(1)
    unittest.main()
