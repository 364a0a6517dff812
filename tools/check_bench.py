#!/usr/bin/env python3
"""CI perf-regression gate: compare benchmark artifacts to a baseline.

Reads one or more benchmark result files and compares every metric tracked
in the baseline against the current run:

  * TimingJson files emitted by the exp_*/micro_serve harnesses via
    --timing_json=FILE: {"harness": ..., "threads": N, "timings_s": {...}}
  * google-benchmark JSON emitted via --benchmark_out=FILE
    --benchmark_out_format=json: {"context": ..., "benchmarks": [...]}

The format is auto-detected per file. All metrics are wall-clock seconds
(google-benchmark real_time is converted from its time_unit). The baseline
(BENCH_baseline.json, checked in) defines WHICH keys are tracked — extra
keys in the current run are ignored, tracked keys missing from the run
fail the gate.

Thresholds (time ratios, current / baseline):
  * keys containing "p99"  fail above 1.30  (30% tail-latency regression)
  * all other keys         fail above 1.25  (20% throughput regression:
    1/1.25 = 0.8x items per second)

Regressions smaller than --min_delta_s (default 1 ms) of absolute change
never fail: sub-millisecond phases are noise-dominated on shared CI boxes.

Host facts: every artifact carries the facts that make two runs
comparable (nproc, compiler, build_type; TimingJson under "host",
google-benchmark as "host_<key>" context entries). --update stores them
per artifact together with the commit it ran at (`git describe --always
--dirty`), and a check warns (without failing) when a run's facts differ
from the baseline's: the ratios then measure the host as much as the
change. Artifacts recorded before host facts existed carry none.

Usage:
  tools/check_bench.py --baseline=BENCH_baseline.json result1.json ...
  tools/check_bench.py --baseline=BENCH_baseline.json --update result1.json ...
  tools/check_bench.py --baseline=BENCH_baseline.json --update \
      --keys='micro_serve/predict_*,micro_ml/predict_flat_single_s' result1.json ...
  tools/check_bench.py --baseline=BENCH_baseline.json --verify_baseline

--update rewrites the baseline from the current run (tracked keys = all
keys present in the inputs) instead of checking. With --keys (comma-
separated fnmatch patterns over "artifact/metric") it re-records only the
matching metrics and keeps every other baseline value as it was, so a
change re-records the keys it moves without loosening the rest; the
host facts of an artifact are those of its latest re-recorded metric.
A tracked metric that matches --keys but that its artifact's run no
longer emits is dropped from the baseline (and printed as dropped): this
is how a key leaves with the code it timed. Artifacts absent from the
run keep every metric.
--verify_baseline fails unless the baseline is byte-identical to its own
--update serialisation, which rejects hand-formatted edits. Exit code
0 = gate green, 1 = regression, malformed input or a non-canonical
baseline.
"""

import argparse
import fnmatch
import json
import os
import subprocess
import sys

P99_THRESHOLD = 1.30
THROUGHPUT_THRESHOLD = 1.25

TIME_UNIT_TO_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}

# Facts a run artifact carries; they must match for a ratio to mean
# anything.
RUN_HOST_KEYS = ("nproc", "compiler", "build_type")
# The baseline also records the commit each artifact was recorded at; it
# is expected to differ from a checked run's (that is the change).
HOST_KEYS = RUN_HOST_KEYS + ("git_sha",)

BASELINE_COMMENT = ("Perf-regression baseline for tools/check_bench.py. "
                    "Regenerate with --update after intentional perf "
                    "changes; thresholds live in the checker.")


def load_artifact(path):
    """Returns (artifact_name, {metric_key: seconds}, {host_key: text})
    for one result file."""
    with open(path) as fh:
        data = json.load(fh)
    if "timings_s" in data:  # TimingJson from bench_common.h
        name = data.get("harness") or os.path.basename(path)
        metrics = {k: float(v) for k, v in data["timings_s"].items()}
        host = {k: str(v) for k, v in data.get("host", {}).items()
                if k in RUN_HOST_KEYS}
        return name, metrics, host
    if "benchmarks" in data:  # google-benchmark --benchmark_out JSON
        context = data.get("context", {})
        host = {k: str(context["host_" + k]) for k in RUN_HOST_KEYS
                if "host_" + k in context}
        executable = context.get("executable", "")
        name = os.path.basename(executable) or os.path.basename(path)
        if name.startswith("./"):
            name = name[2:]
        metrics = {}
        for bench in data["benchmarks"]:
            if bench.get("run_type") == "aggregate":
                continue
            unit = TIME_UNIT_TO_SECONDS.get(bench.get("time_unit", "ns"))
            if unit is None:
                raise ValueError(
                    f"{path}: unknown time_unit in {bench.get('name')}")
            metrics[bench["name"]] = float(bench["real_time"]) * unit
        return name, metrics, host
    raise ValueError(
        f"{path}: neither TimingJson ('timings_s') nor google-benchmark "
        "('benchmarks') format")


def threshold_for(key):
    return P99_THRESHOLD if "p99" in key else THROUGHPUT_THRESHOLD


def render_baseline(artifacts):
    """The canonical baseline text --update writes: artifacts and metric
    keys sorted, host facts in HOST_KEYS order, 2-space indentation."""
    baseline = {
        "comment": BASELINE_COMMENT,
        "artifacts": {
            name: {
                "host": {k: artifact["host"][k] for k in HOST_KEYS
                         if k in artifact.get("host", {})},
                "metrics": dict(sorted(artifact["metrics"].items())),
            }
            for name, artifact in sorted(artifacts.items())
        },
    }
    return json.dumps(baseline, indent=2) + "\n"


def verify_baseline(path):
    """Failure strings when `path` is not its own --update serialisation."""
    try:
        with open(path) as fh:
            text = fh.read()
        artifacts = json.loads(text)["artifacts"]
        canonical = render_baseline(artifacts)
    except (OSError, AttributeError, KeyError, TypeError,
            json.JSONDecodeError) as err:
        return [f"cannot load baseline: {err!r}"]
    if text != canonical:
        return ["baseline differs from its --update serialisation "
                "(hand edit?); regenerate it with --update"]
    return []


def git_sha():
    """The checkout's commit as `git describe --always --dirty`, or
    "unknown" outside a git checkout."""
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return result.stdout.strip() or "unknown"


def update_baseline(artifacts, current, hosts, patterns):
    """Folds the current run into `artifacts` (the loaded baseline's, or
    empty) and returns the (re-recorded, dropped) "artifact/metric" names.
    Without patterns every run metric is taken and artifacts absent from
    the run are dropped; with patterns only matching metrics are taken,
    and matching tracked metrics the artifact's run lacks are dropped."""
    sha = git_sha()
    if not patterns:
        artifacts.clear()

    def matches(name, key):
        return not patterns or any(fnmatch.fnmatchcase(f"{name}/{key}", p)
                                   for p in patterns)

    recorded = []
    dropped = []
    for name, metrics in sorted(current.items()):
        slot = artifacts.get(name)
        if slot is not None:
            gone = sorted(key for key in slot["metrics"]
                          if key not in metrics and matches(name, key))
            for key in gone:
                del slot["metrics"][key]
            dropped.extend(f"{name}/{key}" for key in gone)
        taken = {key: value for key, value in metrics.items()
                 if matches(name, key)}
        if not taken:
            continue
        slot = artifacts.setdefault(name, {"metrics": {}})
        slot["metrics"].update(taken)
        slot["host"] = dict(hosts[name], git_sha=sha)
        recorded.extend(f"{name}/{key}" for key in sorted(taken))
    return recorded, dropped


def warn_host_mismatch(baseline, hosts):
    for artifact, tracked in sorted(baseline.get("artifacts", {}).items()):
        recorded = tracked.get("host", {})
        run = hosts.get(artifact, {})
        differs = [f"{k} {recorded.get(k)!r} -> {run.get(k)!r}"
                   for k in RUN_HOST_KEYS
                   if k in recorded and recorded.get(k) != run.get(k)]
        if differs:
            print(f"warning: {artifact} runs on a different host than its "
                  f"baseline ({'; '.join(differs)}; baseline from "
                  f"{recorded.get('git_sha', 'unknown')}): ratios measure "
                  "the host as well as the change", file=sys.stderr)


def check(baseline, current, min_delta_s):
    """Returns a list of failure strings (empty = gate green)."""
    failures = []
    for artifact, tracked in sorted(baseline.get("artifacts", {}).items()):
        run = current.get(artifact)
        if run is None:
            failures.append(f"{artifact}: tracked artifact missing from the "
                            "current run (pass its result file)")
            continue
        for key, base_value in sorted(tracked["metrics"].items()):
            if key not in run:
                failures.append(f"{artifact}/{key}: tracked metric missing "
                                "from the current run")
                continue
            value = run[key]
            if base_value <= 0.0:
                continue  # cannot form a ratio; treat as untracked
            ratio = value / base_value
            limit = threshold_for(key)
            if ratio > limit and (value - base_value) > min_delta_s:
                failures.append(
                    f"{artifact}/{key}: {value:.6f}s vs baseline "
                    f"{base_value:.6f}s ({ratio:.2f}x > {limit:.2f}x limit)")
            else:
                print(f"  ok {artifact}/{key}: {value:.6f}s "
                      f"({ratio:.2f}x of baseline, limit {limit:.2f}x)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="*",
                        help="benchmark result JSON files")
    parser.add_argument("--baseline", required=True,
                        help="path to BENCH_baseline.json")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current run")
    parser.add_argument("--keys", default="",
                        help="with --update: comma-separated artifact/metric "
                             "fnmatch patterns to re-record; other baseline "
                             "values are kept")
    parser.add_argument("--min_delta_s", type=float, default=1e-3,
                        help="absolute regression below this never fails")
    parser.add_argument("--verify_baseline", action="store_true",
                        help="fail unless the baseline is canonical")
    args = parser.parse_args()

    if args.verify_baseline:
        failures = verify_baseline(args.baseline)
        for failure in failures:
            print(f"error: {args.baseline}: {failure}", file=sys.stderr)
        if not failures:
            print(f"{args.baseline} is its own --update serialisation")
        return 1 if failures else 0
    if not args.results:
        parser.error("no result files given")
    patterns = [p for p in args.keys.split(",") if p]
    if patterns and not args.update:
        parser.error("--keys only applies to --update")

    current = {}
    hosts = {}
    for path in args.results:
        try:
            name, metrics, host = load_artifact(path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        # Repeated files for the same artifact keep the per-key minimum:
        # running a bench N times and passing every file gives a best-of-N
        # comparison, which damps scheduler noise on shared CI runners.
        slot = current.setdefault(name, {})
        for key, value in metrics.items():
            slot[key] = min(slot.get(key, value), value)
        first = hosts.setdefault(name, host)
        if host != first:
            print(f"warning: {name} runs disagree on host facts "
                  f"({first} vs {host}); keeping the first",
                  file=sys.stderr)

    baseline = {"artifacts": {}}
    if not args.update or patterns:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot load baseline: {err}", file=sys.stderr)
            return 1

    if args.update:
        artifacts = baseline["artifacts"]
        recorded, dropped = update_baseline(artifacts, current, hosts,
                                            patterns)
        unmatched = [p for p in patterns
                     if not any(fnmatch.fnmatchcase(key, p)
                                for key in recorded + dropped)]
        if unmatched:
            print(f"error: --keys patterns {unmatched} match no metric of "
                  "the run or tracked metric it lacks; baseline left as it "
                  "was", file=sys.stderr)
            return 1
        with open(args.baseline, "w") as fh:
            fh.write(render_baseline(artifacts))
        for key in dropped:
            print(f"  dropped {key} (tracked, no longer emitted by the run)")
        print(f"baseline written to {args.baseline} ({len(recorded)} of "
              f"{sum(len(a['metrics']) for a in artifacts.values())} "
              f"tracked metrics re-recorded, {len(dropped)} dropped)")
        return 0

    warn_host_mismatch(baseline, hosts)
    failures = check(baseline, current, args.min_delta_s)
    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
