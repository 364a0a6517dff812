#!/usr/bin/env python3
"""Determinism gate over one leg of serve-replay runs.

Usage:
    tools/check_determinism.py LEG_DIR

LEG_DIR holds the artifacts of one replay at several thread/shard
configs, named <config>.<artifact> with <config> like t8_s2:

    <config>.predictions.csv   --predictions_out
    <config>.summary.txt       the lifecycle/training/telemetry/slo lines
    <config>.timeseries.json   --timeseries_json (telemetry leg only)
    <config>.segments.log      --store_out: the binary TKSEGLG1 log of
                               every closed segment and its answer
    <config>.metrics.json      --metrics_json

The t1_s1 run is the reference; every other run is checked against it:

  1. Every byte artifact the reference has is byte-identical.
  2. Deterministic counters are IDENTICAL. The allowlist below names the
     counters whose values are a pure function of the replayed corpus;
     timing-dependent metrics (histograms, gauges, batch counts — batch
     composition depends on dispatch timing) are deliberately excluded.
     The served model version (serve.registry.active_version) must agree.
  3. Shard-labelled counters (serve.shard<i>.<name>) in every run SUM,
     per basename, to the reference's value of that deterministic
     counter — the shard mirrors partition the aggregate, they never
     double- or under-count. A run without mirrors, or with a mirror of
     an unknown counter, fails.

Exit 0 when every run agrees; exit 1 with a per-key diff otherwise.
"""

import argparse
import difflib
import json
import os
import re
import sys

REFERENCE = "t1_s1"
CONFIG_RE = re.compile(r"^(t\d+_s\d+)\.(.+)$")
BYTE_ARTIFACTS = ("predictions.csv", "summary.txt", "timeseries.json",
                  "segments.log")
# Byte artifacts whose first differing line would print as noise.
BINARY_ARTIFACTS = ("segments.log",)
METRICS = "metrics.json"

# Counters whose values must not depend on the thread or shard count.
# Prefix match.
DETERMINISTIC_PREFIXES = (
    "serve.sessions.",
    "serve.shed_total",
    "serve.degraded_total",
    "serve.deadline_exceeded_total",
    "serve.unavailable_total",
    "serve.batch_predictor.requests",
    "serve.registry.swaps",
    "serve.registry.promotions",
    "serve.registry.shadow_installs",
    "serve.registry.shadow_retired",
    "serve.shadow.",
    "serve.ct.",
    "store.",
)

SHARD_RE = re.compile(r"^serve\.shard(\d+)\.(.+)$")

# serve.shard<i>.<basename> -> the aggregate counter it partitions.
SHARD_BASENAME_TO_AGGREGATE = {
    "sessions.points_ingested": "serve.sessions.points_ingested",
    "sessions.segments_emitted": "serve.sessions.segments_emitted",
    "batch_predictor.requests": "serve.batch_predictor.requests",
    "shed_total": "serve.shed_total",
    "deadline_exceeded_total": "serve.deadline_exceeded_total",
    "degraded_total": "serve.degraded_total",
    "unavailable_total": "serve.unavailable_total",
}


def deterministic_view(counters):
    """The unlabelled deterministic counters, shard mirrors excluded."""
    return {key: value for key, value in sorted(counters.items())
            if not SHARD_RE.match(key)
            and key.startswith(DETERMINISTIC_PREFIXES)}


def aggregate_of(key):
    """Aggregate counter a shard-split total compares against.

    serve.shed_total.* / serve.degraded_total.* are reason-labelled in the
    aggregate but single counters per shard: fold the reasons together.
    """
    for prefix in ("serve.shed_total", "serve.degraded_total"):
        if key.startswith(prefix):
            return prefix
    return key


def byte_failures(leg, reference, other):
    """Empty when the files match; else a message with the first diff."""
    with open(reference, "rb") as f:
        want = f.read()
    with open(other, "rb") as f:
        got = f.read()
    if want == got:
        return []
    offset = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                  min(len(want), len(got)))
    head = f"{leg} determinism: {other} diverges at byte {offset}"
    if other.endswith(BINARY_ARTIFACTS):
        return [head]
    diff = difflib.unified_diff(
        want.decode(errors="replace").splitlines(),
        got.decode(errors="replace").splitlines(),
        reference, other, lineterm="", n=0)
    lines = list(diff)[:8] or ["(same lines; the bytes differ)"]
    return [head] + [
        f"    {line}" for line in lines]


def metrics_failures(path, doc, base_view, base_info, folded):
    failures = []
    counters = doc.get("counters", {})
    view = deterministic_view(counters)
    for key in sorted(set(base_view) | set(view)):
        if base_view.get(key) != view.get(key):
            failures.append(f"{path}: {key} = {view.get(key)} != "
                            f"{base_view.get(key)} ({REFERENCE})")

    base_version = base_info.get("serve.registry.active_version")
    version = doc.get("info", {}).get("serve.registry.active_version")
    if version != base_version:
        failures.append(f"{path}: serve.registry.active_version = "
                        f"{version!r} != {base_version!r}")

    sums = {}
    for key, value in counters.items():
        match = SHARD_RE.match(key)
        if match is None:
            continue
        aggregate = SHARD_BASENAME_TO_AGGREGATE.get(match.group(2))
        if aggregate is None:
            failures.append(f"{path}: unknown shard-labelled counter "
                            f"{key!r}: teach tools/check_determinism.py "
                            "its aggregate")
            continue
        sums[aggregate] = sums.get(aggregate, 0) + value
    if not sums:
        failures.append(f"{path}: no serve.shard<i>.* counters "
                        "(was this run actually sharded?)")
    for aggregate, total in sorted(sums.items()):
        if total != folded.get(aggregate, 0):
            failures.append(
                f"{path}: sum over shards of {aggregate} = {total} != "
                f"{folded.get(aggregate, 0)} ({REFERENCE} aggregate)")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("leg_dir", help="directory of one leg's runs")
    leg_dir = parser.parse_args().leg_dir
    leg = os.path.basename(os.path.normpath(leg_dir))
    runs = {}
    for name in sorted(os.listdir(leg_dir)):
        match = CONFIG_RE.match(name)
        if match and match.group(2) in BYTE_ARTIFACTS + (METRICS,):
            runs.setdefault(match.group(1), set()).add(match.group(2))
    reference = runs.get(REFERENCE, set())
    if METRICS not in reference or len(runs) < 2:
        sys.exit(f"{leg_dir}: need {REFERENCE}.{METRICS} and at least one "
                 f"other run (found {sorted(runs)})")

    def path(config, artifact):
        return os.path.join(leg_dir, f"{config}.{artifact}")

    def load(config):
        with open(path(config, METRICS)) as f:
            return json.load(f)

    base = load(REFERENCE)
    base_view = deterministic_view(base.get("counters", {}))
    if not base_view:
        sys.exit(f"{path(REFERENCE, METRICS)}: no deterministic serve "
                 "counters found (wrong file?)")
    folded = {}
    for key, value in base_view.items():
        aggregate = aggregate_of(key)
        if aggregate in SHARD_BASENAME_TO_AGGREGATE.values():
            folded[aggregate] = folded.get(aggregate, 0) + value

    failures = []
    for config in sorted(runs):
        if runs[config] != reference:
            failures.append(f"{leg} determinism: {config} has artifacts "
                            f"{sorted(runs[config])}, {REFERENCE} has "
                            f"{sorted(reference)}")
            continue
        failures += metrics_failures(path(config, METRICS), load(config),
                                     base_view, base.get("info", {}), folded)
        for artifact in sorted(reference - {METRICS}):
            if config != REFERENCE:
                failures += byte_failures(leg, path(REFERENCE, artifact),
                                          path(config, artifact))

    if failures:
        print(f"{leg} determinism gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"{leg} determinism: {len(runs)} runs agree with {REFERENCE} "
          f"({', '.join(sorted(reference - {METRICS}))} byte-identical; "
          f"{len(base_view)} deterministic counters; shard mirrors sum)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
