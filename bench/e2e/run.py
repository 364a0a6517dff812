#!/usr/bin/env python3
"""End-to-end serving benchmark of TrajKit (see bench/e2e/README.md).

Builds bench/e2e into build-e2e/, runs each workload in its own process
pinned to the first two CPUs this process may use, prints every metric as
`workload metric value unit`, and writes the results as JSON.

    python3 bench/e2e/run.py [--seed=7] [--workloads=trips,windowed,ct,live]
                             [--seconds=10] [--smoke] [--out=FILE]

runs the named workloads (default: all four) with their traced passes and
exits non-zero when any correctness check fails. --smoke is a quick
self-test: 6 users x 2 days, 2 timed passes per workload.

    python3 bench/e2e/run.py --workload trips --seed 7 --seconds 10 --trace 0

runs one workload and ends with one JSON line holding `correct`,
`attempted`, `failed` and the BENCHMARK.json metrics: the end-to-end ones
with --trace 0, the per-layer ones with --trace 1.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "trajkit_e2e")
RESULTS = os.path.join(BUILD, "results")
WORKLOADS = ["trips", "windowed", "ct", "live"]
PINNED_CPUS = 2
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds trajkit_e2e; build output goes to
    stderr so stdout stays metrics only."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no TrajKit sources at %s; run from a full checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "trajkit_e2e",
                  "-j", str(PINNED_CPUS)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(name, args):
    """Runs one workload process; returns its result dict."""
    out = os.path.join(RESULTS, name + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload=" + name, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--out=" + out]
    if args.trace:
        cmd.append("--trace_out=" + os.path.join(RESULTS,
                                                 name + ".trace.json"))
    if args.smoke:
        cmd += ["--users=6", "--days=2", "--min_passes=2"]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s: no result within %d s" % (name, RUN_TIMEOUT_S))
    # Exit 1 with a result file = a correctness check failed.
    if proc.returncode not in (0, 1) or not os.path.isfile(out):
        fail("%s: trajkit_e2e exited %d" % (name, proc.returncode))
    with open(out) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and end with a JSON line")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=os.path.join(RESULTS, "result.json"))
    args = parser.parse_args()

    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = 0 if args.smoke else benchmark["run_seconds"]
    names = [args.workload] if args.workload else args.workloads.split(",")
    for name in names:
        if name not in WORKLOADS:
            fail("unknown workload %r (want %s)" % (name, ",".join(WORKLOADS)))

    build()
    os.makedirs(RESULTS, exist_ok=True)
    allowed = sorted(os.sched_getaffinity(0))
    pinned = allowed[:PINNED_CPUS]
    os.sched_setaffinity(0, pinned)  # Inherited by every workload process.

    result = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "host": {"nproc": os.cpu_count(), "allowed_cpus": allowed,
                 "pinned_cpus": pinned, "git_sha": git_sha()},
        "workloads": {},
    }
    for key, value in result["host"].items():
        print("host %s %s" % (key, value))
    print("host seed %d" % args.seed)
    for name in names:
        run = run_workload(name, args)
        result["workloads"][name] = run
        for key, value in run["host"].items():
            print("%s host %s %s" % (name, key, value))
        for check in run["checks"]:
            print("%s check %s %s: %s" % (name, check["name"],
                                          "ok" if check["ok"] else "FAILED",
                                          check["detail"]))
        for metric, entry in run["metrics"].items():
            print("%s %s %.6g %s" % (name, metric, entry["value"],
                                     entry["unit"]))
        sys.stdout.flush()

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
    runs = list(result["workloads"].values())
    correct = all(run["correct"] for run in runs)
    print("result written to %s; correct=%s" % (args.out, correct),
          file=sys.stderr)

    if args.workload:
        kind = "per_layer" if args.trace else "end_to_end"
        metrics = {}
        for spec in benchmark[kind]:
            entry = runs[0]["metrics"].get(spec["name"])
            if entry is None:
                fail("%s does not report %s" % (args.workload, spec["name"]))
            metrics[spec["name"]] = entry
        print(json.dumps({"correct": correct,
                          "attempted": runs[0]["attempted"],
                          "failed": runs[0]["failed"],
                          "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
