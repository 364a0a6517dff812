#!/usr/bin/env bash
# TrajKit CI driver, run locally or by .github/workflows/ci.yml:
#
#   1. tier-1: configure (-Werror) + build + full ctest, then the
#      end-to-end smoke (bench/e2e/run.py --smoke): all four serving
#      workloads on a small corpus, failing on any correctness check
#   2. shard determinism: the same replay corpus at --shards=1/2/8 must
#      produce byte-identical predictions, lifecycle accounting, and
#      deterministic metrics (tools/check_shard_metrics.py)
#   3. continuous-training determinism: the same replay with
#      --continuous_training at t1/t8 × s1/s2/s8 must be byte-identical
#      (predictions + lifecycle + training lines + deterministic
#      registry/shadow/ct counters) with >= 1 auto-promotion
#   4. telemetry determinism + scrape smoke: tick-sampled time-series
#      dumps and SLO transitions byte-identical at t1/t8 × s1/s8; a
#      lingering serve-replay's /metrics byte-matches --metrics_prom and
#      passes tools/check_prom.py, then exits via /quitquitquit
#   5. chaos smokes: fault-injection replay (sharded) and a
#      shadow-promotion run under chaos — >= 1 promotion in the trace
#      export, metrics, and the statusz registry-audit section
#   6. TSan:   concurrency-labelled tests under ThreadSanitizer
#   7. ASan:   the full suite under AddressSanitizer
#   8. bench:  perf-regression gate (tools/check_bench.py) against the
#              checked-in BENCH_baseline.json, incl. the shadow-scoring
#              and telemetry-tick ingest-overhead self-gates
#              (--require_shadow_overhead / --require_tick_overhead)
#
# Usage: tools/run_ci.sh [--skip-tsan] [--skip-asan] [--skip-bench]
# Env:   BUILD_DIR (default build), TSAN_BUILD_DIR (default build-tsan),
#        ASAN_BUILD_DIR (default build-asan), JOBS (default nproc),
#        BENCH_RUNS (default 2, best-of-N for the perf gate).
#
# All sanitizer/bench legs reuse their build directories across runs; a
# ccache install is picked up automatically for faster rebuilds.

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
JOBS="${JOBS:-$(nproc)}"
BENCH_RUNS="${BENCH_RUNS:-2}"
SKIP_TSAN=0
SKIP_ASAN=0
SKIP_BENCH=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-bench) SKIP_BENCH=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# Warnings are errors in CI; local developer builds stay permissive.
COMMON_CMAKE_ARGS=(-DTRAJKIT_WERROR=ON)
if command -v ccache >/dev/null 2>&1; then
  COMMON_CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  echo "==> ccache enabled"
fi

echo "==> tier-1: configure + build (${BUILD_DIR})"
cmake -B "$BUILD_DIR" -S . "${COMMON_CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "==> tier-1: ctest"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# End-to-end smoke: builds the e2e driver into build-e2e/ and runs the
# trips, windowed, ct and live workloads on 6 users x 2 days. It exits
# nonzero when a correctness check fails: offline_parity,
# answers_match_predict_one, live_matches_windowed, digest_stable, the
# per-pass lifecycle accounting or the ct tally.
echo "==> e2e smoke: bench/e2e/run.py --smoke"
python3 bench/e2e/run.py --smoke

# Shard-determinism matrix: the sharding refactor must be invisible to
# the replayed workload. One corpus, one model, three shard counts —
# the per-segment predictions CSV and the lifecycle accounting line must
# be byte-identical, and the deterministic metrics must agree modulo the
# shard-labelled mirrors (which must sum back to the shards=1 totals).
echo "==> shard determinism: serve-replay at --shards=1/2/8"
SHARD_OUT="$BUILD_DIR/shard-determinism"
mkdir -p "$SHARD_OUT"
"$BUILD_DIR"/tools/trajkit features --users=6 --days=2 --seed=42 \
  --out="$SHARD_OUT/features.csv" >/dev/null
"$BUILD_DIR"/tools/trajkit train --dataset="$SHARD_OUT/features.csv" \
  --trees=15 --model="$SHARD_OUT/rf.model" >/dev/null
for shards in 1 2 8; do
  "$BUILD_DIR"/tools/trajkit serve-replay --users=6 --days=2 --seed=42 \
    --model="$SHARD_OUT/rf.model" --shards="$shards" \
    --predictions_out="$SHARD_OUT/predictions_s$shards.csv" \
    --metrics_json="$SHARD_OUT/metrics_s$shards.json" \
    > "$SHARD_OUT/replay_s$shards.log"
  grep '^lifecycle:' "$SHARD_OUT/replay_s$shards.log" \
    > "$SHARD_OUT/lifecycle_s$shards.txt"
done
for shards in 2 8; do
  cmp "$SHARD_OUT/predictions_s1.csv" \
      "$SHARD_OUT/predictions_s$shards.csv" || {
    echo "shard determinism: predictions diverge at --shards=$shards" >&2
    exit 1
  }
  diff "$SHARD_OUT/lifecycle_s1.txt" "$SHARD_OUT/lifecycle_s$shards.txt" || {
    echo "shard determinism: lifecycle accounting diverges at --shards=$shards" >&2
    exit 1
  }
done
python3 tools/check_shard_metrics.py "$SHARD_OUT/metrics_s1.json" \
  "$SHARD_OUT/metrics_s2.json" "$SHARD_OUT/metrics_s8.json"

# Continuous-training determinism matrix: with the refit/shadow/promotion
# loop live (--continuous_training), the replay must STILL be
# byte-identical at any thread or shard count — registry mutations only
# happen at replay-step barriers, so which model answers which request is
# a pure function of the corpus. The training summary line (steps,
# refits, promotions, final served version) must agree too, and the run
# must contain at least one auto-promotion or the leg proves nothing.
echo "==> continuous-training determinism: serve-replay at --threads=1/8 x --shards=1/2/8"
CT_OUT="$BUILD_DIR/ct-determinism"
mkdir -p "$CT_OUT"
CT_FLAGS=(--users=6 --days=2 --seed=42 --model="$SHARD_OUT/rf.model"
  --continuous_training --step_every=8 --refit_every=16 --min_fit=16
  --min_shadow=8 --promote_epsilon=-1 --ct_trees=10 --ct_buffer=256)
for config in "t1_s1 --threads=1 --shards=1" "t8_s1 --threads=8 --shards=1" \
              "t1_s2 --threads=1 --shards=2" "t8_s8 --threads=8 --shards=8"; do
  # shellcheck disable=SC2086
  set -- $config
  tag="$1"; shift
  "$BUILD_DIR"/tools/trajkit serve-replay "${CT_FLAGS[@]}" "$@" \
    --predictions_out="$CT_OUT/predictions_$tag.csv" \
    --metrics_json="$CT_OUT/metrics_$tag.json" \
    > "$CT_OUT/replay_$tag.log"
  grep '^lifecycle:\|^training:' "$CT_OUT/replay_$tag.log" \
    > "$CT_OUT/summary_$tag.txt"
done
grep -E '^training: .* [1-9][0-9]* promotions' "$CT_OUT/summary_t1_s1.txt" \
  >/dev/null || {
    echo "ct determinism: the matrix corpus produced no promotion" >&2
    exit 1
  }
for tag in t8_s1 t1_s2 t8_s8; do
  cmp "$CT_OUT/predictions_t1_s1.csv" "$CT_OUT/predictions_$tag.csv" || {
    echo "ct determinism: predictions diverge at $tag" >&2
    exit 1
  }
  diff "$CT_OUT/summary_t1_s1.txt" "$CT_OUT/summary_$tag.txt" || {
    echo "ct determinism: lifecycle/training summary diverges at $tag" >&2
    exit 1
  }
done
python3 tools/check_shard_metrics.py "$CT_OUT/metrics_t1_s1.json" \
  "$CT_OUT/metrics_t1_s2.json" "$CT_OUT/metrics_t8_s8.json"

# Telemetry determinism matrix: the live telemetry plane samples at
# replay barriers, so the tick-sampled time-series rings and the SLO
# burn-rate transitions are a pure function of the corpus — the
# --timeseries_json dump and the slo/telemetry summary lines must be
# byte-identical at any thread or shard count.
echo "==> telemetry determinism: serve-replay at --threads=1/8 x --shards=1/8"
TELE_OUT="$BUILD_DIR/telemetry"
mkdir -p "$TELE_OUT"
TELE_SLO='shed:type=ratio,bad=serve.shed_total.queue_full+serve.shed_total.preempted,total=serve.batch_predictor.requests,budget=0.02,fast=4,slow=16'
for config in "t1_s1 --threads=1 --shards=1" "t8_s1 --threads=8 --shards=1" \
              "t1_s8 --threads=1 --shards=8" "t8_s8 --threads=8 --shards=8"; do
  # shellcheck disable=SC2086
  set -- $config
  tag="$1"; shift
  "$BUILD_DIR"/tools/trajkit serve-replay --users=6 --days=2 --seed=42 \
    --model="$SHARD_OUT/rf.model" "$@" --tick_every=16 \
    --slo_spec="$TELE_SLO" \
    --timeseries_json="$TELE_OUT/timeseries_$tag.json" \
    > "$TELE_OUT/replay_$tag.log"
  grep '^telemetry:\|^slo:' "$TELE_OUT/replay_$tag.log" \
    > "$TELE_OUT/summary_$tag.txt"
done
grep -q '^telemetry: [1-9]' "$TELE_OUT/summary_t1_s1.txt" || {
  echo "telemetry determinism: the replay never ticked" >&2
  exit 1
}
for tag in t8_s1 t1_s8 t8_s8; do
  cmp "$TELE_OUT/timeseries_t1_s1.json" "$TELE_OUT/timeseries_$tag.json" || {
    echo "telemetry determinism: time-series dump diverges at $tag" >&2
    exit 1
  }
  diff "$TELE_OUT/summary_t1_s1.txt" "$TELE_OUT/summary_$tag.txt" || {
    echo "telemetry determinism: slo/telemetry summary diverges at $tag" >&2
    exit 1
  }
done

# Scrape smoke: a lingering serve-replay serves the frozen post-run
# snapshot over HTTP; /metrics must byte-match the --metrics_prom file
# (a scrape never mutates what it exports), both must pass the
# exposition-format lint, and /quitquitquit ends the process cleanly —
# no signals, no sleeps against a moving target.
echo "==> scrape smoke: serve-replay --http_port=0 --http_linger"
"$BUILD_DIR"/tools/trajkit serve-replay --users=6 --days=2 --seed=42 \
  --model="$SHARD_OUT/rf.model" --tick_every=16 --slo_spec="$TELE_SLO" \
  --http_port=0 --http_linger \
  --metrics_prom="$TELE_OUT/metrics.prom" \
  --timeseries_json="$TELE_OUT/timeseries.json" \
  > "$TELE_OUT/http.log" 2>&1 &
SERVE_PID=$!
PORT=""
for _ in $(seq 1 200); do
  PORT=$(sed -n 's/^http: lingering on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$TELE_OUT/http.log" | head -1)
  [[ -n "$PORT" ]] && break
  sleep 0.1
done
[[ -n "$PORT" ]] || {
  echo "scrape smoke: server never reached the linger state" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
}
scrape() {
  python3 -c 'import sys, urllib.request
with urllib.request.urlopen(sys.argv[1]) as response:
    sys.stdout.buffer.write(response.read())' "http://127.0.0.1:$PORT$1"
}
scrape /metrics > "$TELE_OUT/scrape_metrics.prom"
cmp "$TELE_OUT/metrics.prom" "$TELE_OUT/scrape_metrics.prom" || {
  echo "scrape smoke: /metrics differs from the --metrics_prom file" >&2
  exit 1
}
python3 tools/check_prom.py "$TELE_OUT/metrics.prom" \
  "$TELE_OUT/scrape_metrics.prom"
scrape /timeseries.json > "$TELE_OUT/scrape_timeseries.json"
cmp "$TELE_OUT/timeseries.json" "$TELE_OUT/scrape_timeseries.json" || {
  echo "scrape smoke: /timeseries.json differs from the --timeseries_json file" >&2
  exit 1
}
scrape /healthz | grep -qx ok || {
  echo "scrape smoke: /healthz is not ok" >&2
  exit 1
}
scrape /metrics.json | python3 -c 'import json, sys; json.load(sys.stdin)'
scrape /statusz > "$TELE_OUT/scrape_statusz.txt"
grep -q '^slo$' "$TELE_OUT/scrape_statusz.txt" || {
  echo "scrape smoke: /statusz lost its slo section" >&2
  exit 1
}
grep -q '^timeseries$' "$TELE_OUT/scrape_statusz.txt" || {
  echo "scrape smoke: /statusz lost its timeseries section" >&2
  exit 1
}
scrape /quitquitquit >/dev/null
wait "$SERVE_PID" || {
  echo "scrape smoke: lingering serve-replay exited nonzero" >&2
  exit 1
}
echo "scrape smoke: ok (port $PORT)"

# Fault-injection smoke: a chaos replay must survive (exit 0, every
# request accounted — the CLI itself fails on a lifecycle leak) AND the
# chaos must actually bite: at least one request shed or degraded, with
# the last-good-snapshot rung (previous_model) demonstrably exercised.
# The same run dumps the flight recorder; tools/check_trace.py proves
# the Chrome trace is loadable, every span's trace id resolves in the
# request log, and a fault-injected request was tail-kept.
echo "==> chaos smoke: serve-replay under --fault_spec"
CHAOS_OUT="$BUILD_DIR/chaos-smoke"
mkdir -p "$CHAOS_OUT"
"$BUILD_DIR"/tools/trajkit features --users=6 --days=2 --seed=42 \
  --out="$CHAOS_OUT/features.csv" >/dev/null
"$BUILD_DIR"/tools/trajkit train --dataset="$CHAOS_OUT/features.csv" \
  --trees=15 --model="$CHAOS_OUT/rf.model" >/dev/null
"$BUILD_DIR"/tools/trajkit serve-replay --users=6 --days=2 --seed=42 \
  --model="$CHAOS_OUT/rf.model" \
  --deadline_ms=100 --max_queue=16 --retries=2 \
  --fault_spec="swap_stall:p=0.2,latency_ms=5;predict_fail:p=0.2;batch_delay:p=0.3,latency_ms=2;seed=3" \
  --metrics_json="$CHAOS_OUT/metrics.json" \
  --trace_json="$CHAOS_OUT/trace.json" | tee "$CHAOS_OUT/replay.log"
grep -E "lifecycle: .* degraded: previous_model=" "$CHAOS_OUT/replay.log" \
  >/dev/null || {
    echo "chaos smoke: accounting line lost its per-rung counts" >&2
    exit 1
  }
python3 - "$CHAOS_OUT/metrics.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1])).get("counters", {})
shed = sum(v for k, v in counters.items() if k.startswith("serve.shed_total"))
degraded = sum(
    v for k, v in counters.items() if k.startswith("serve.degraded_total"))
previous_model = counters.get("serve.degraded_total.previous_model", 0)
print(f"chaos smoke: shed={shed} degraded={degraded} "
      f"previous_model={previous_model}")
if shed + degraded == 0:
    sys.exit("chaos smoke: fault spec injected nothing "
             "(expected nonzero serve.shed_total or serve.degraded_total)")
if previous_model == 0:
    sys.exit("chaos smoke: the last-good-snapshot rung was never "
             "exercised (serve.degraded_total.previous_model == 0)")
EOF
python3 tools/check_trace.py "$CHAOS_OUT/trace.json" \
  --require-tail-kept-fault

# The same chaos must bite when the plane is sharded: admission control
# and the degradation ladder are per-shard now, so re-run at --shards=8
# and re-assert the shed/degraded counters (the shard mirrors must light
# up too — a silent fall-back to one shard would pass the first run).
"$BUILD_DIR"/tools/trajkit serve-replay --users=6 --days=2 --seed=42 \
  --model="$CHAOS_OUT/rf.model" --shards=8 \
  --deadline_ms=100 --max_queue=16 --retries=2 \
  --fault_spec="swap_stall:p=0.2,latency_ms=5;predict_fail:p=0.2;batch_delay:p=0.3,latency_ms=2;seed=3" \
  --metrics_json="$CHAOS_OUT/metrics_s8.json" | tee "$CHAOS_OUT/replay_s8.log"
grep -E "lifecycle: .* degraded: previous_model=" "$CHAOS_OUT/replay_s8.log" \
  >/dev/null || {
    echo "chaos smoke (sharded): accounting line lost its per-rung counts" >&2
    exit 1
  }
python3 - "$CHAOS_OUT/metrics_s8.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1])).get("counters", {})
shed = sum(v for k, v in counters.items()
           if k.startswith("serve.shed_total"))
degraded = sum(v for k, v in counters.items()
               if k.startswith("serve.degraded_total"))
previous_model = counters.get("serve.degraded_total.previous_model", 0)
shard_counters = sum(1 for k in counters if k.startswith("serve.shard"))
print(f"chaos smoke (shards=8): shed={shed} degraded={degraded} "
      f"previous_model={previous_model} shard_counters={shard_counters}")
if shed + degraded == 0:
    sys.exit("chaos smoke (shards=8): fault spec injected nothing")
if previous_model == 0:
    sys.exit("chaos smoke (shards=8): the last-good-snapshot rung was "
             "never exercised")
if shard_counters == 0:
    sys.exit("chaos smoke (shards=8): no serve.shard<i>.* counters — "
             "the plane silently ran unsharded")
EOF

# Shadow-promotion smoke: the continuous-training loop must close under
# chaos — candidates refit, shadow-score on the live batches, and at
# least one auto-promotes, with the promotion landmark in the trace
# export, the audit counters in the metrics dump, and every request
# still accounted (the CLI fails itself on a lifecycle leak). The
# statusz demo then proves the page's registry-audit section shows the
# promotion.
echo "==> shadow promotion smoke: --continuous_training under --fault_spec"
CTP_OUT="$BUILD_DIR/ct-promotion"
mkdir -p "$CTP_OUT"
"$BUILD_DIR"/tools/trajkit serve-replay --users=6 --days=2 --seed=42 \
  --model="$CHAOS_OUT/rf.model" --shards=2 \
  --continuous_training --step_every=8 --refit_every=16 --min_fit=16 \
  --min_shadow=4 --promote_epsilon=-1 --ct_trees=10 --ct_buffer=256 \
  --deadline_ms=100 --max_queue=16 --retries=2 \
  --fault_spec="predict_fail:p=0.1;batch_delay:p=0.2,latency_ms=1;seed=3" \
  --metrics_json="$CTP_OUT/metrics.json" \
  --trace_json="$CTP_OUT/trace.json" | tee "$CTP_OUT/replay.log"
grep -E '^training: .* [1-9][0-9]* promotions' "$CTP_OUT/replay.log" \
  >/dev/null || {
    echo "shadow promotion smoke: no promotion under chaos" >&2
    exit 1
  }
grep -q registry_promotion "$CTP_OUT/trace.json" || {
  echo "shadow promotion smoke: registry_promotion landmark missing from the trace export" >&2
  exit 1
}
python3 - "$CTP_OUT/metrics.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
counters = doc.get("counters", {})
promotions = counters.get("serve.registry.promotions", 0)
shadows = counters.get("serve.registry.shadow_installs", 0)
samples = counters.get("serve.shadow.samples", 0)
audit = doc.get("info", {}).get("serve.registry.audit", "")
print(f"shadow promotion smoke: shadows={shadows} promotions={promotions} "
      f"shadow_samples={samples}")
if promotions == 0:
    sys.exit("shadow promotion smoke: serve.registry.promotions == 0")
if samples == 0:
    sys.exit("shadow promotion smoke: the shadow was never scored "
             "(serve.shadow.samples == 0)")
if " promote " not in f" {audit} ":
    sys.exit("shadow promotion smoke: no promote event in the registry "
             "audit trail")
EOF
"$BUILD_DIR"/tools/trajkit statusz --continuous_training --step_every=8 \
  --refit_every=16 --min_fit=16 --min_shadow=4 --promote_epsilon=-1 \
  --ct_trees=10 --ct_buffer=256 > "$CTP_OUT/statusz.log"
grep -A8 '^registry audit' "$CTP_OUT/statusz.log" | grep -q ' promote ' || {
  echo "shadow promotion smoke: statusz registry-audit section shows no promotion" >&2
  exit 1
}

if [[ "$SKIP_TSAN" -eq 1 ]]; then
  echo "==> TSan leg skipped (--skip-tsan)"
else
  echo "==> TSan: configure + build (${TSAN_BUILD_DIR})"
  cmake -B "$TSAN_BUILD_DIR" -S . -DTRAJKIT_SANITIZE=thread \
    "${COMMON_CMAKE_ARGS[@]}"
  cmake --build "$TSAN_BUILD_DIR" -j "$JOBS" \
    --target parallel_test serve_test serve_shard_test serve_ct_test \
             obs_test obs_timeseries_test http_export_test \
             request_trace_test ml_flat_forest_test store_test

  echo "==> TSan: concurrency-labelled tests"
  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j "$JOBS" \
    -L concurrency
fi

if [[ "$SKIP_ASAN" -eq 1 ]]; then
  echo "==> ASan leg skipped (--skip-asan)"
else
  echo "==> ASan: configure + build (${ASAN_BUILD_DIR})"
  cmake -B "$ASAN_BUILD_DIR" -S . -DTRAJKIT_SANITIZE=address \
    "${COMMON_CMAKE_ARGS[@]}"
  cmake --build "$ASAN_BUILD_DIR" -j "$JOBS"

  echo "==> ASan: full ctest"
  ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure -j "$JOBS"
fi

if [[ "$SKIP_BENCH" -eq 1 ]]; then
  echo "==> bench gate skipped (--skip-bench)"
else
  echo "==> bench gate: ${BENCH_RUNS} run(s) of micro_serve + micro_parallel + micro_ml + micro_store"
  BENCH_OUT="$BUILD_DIR/bench-gate"
  mkdir -p "$BENCH_OUT"
  # The >=Nx sharded-ingest scaling assert needs real cores to mean
  # anything; scale the bar to the machine and skip it entirely on boxes
  # too small to demonstrate parallelism (the ingest_t8_s ratio gate in
  # check_bench.py still runs everywhere).
  CORES=$(nproc)
  SHARD_SCALING_ARGS=()
  if [[ "$CORES" -ge 8 ]]; then
    SHARD_SCALING_ARGS=(--require_shard_scaling=3.0)
  elif [[ "$CORES" -ge 4 ]]; then
    SHARD_SCALING_ARGS=(--require_shard_scaling=2.0)
  else
    echo "bench gate: $CORES core(s) — shard-scaling assert skipped"
  fi
  GATE_FILES=()
  for run in $(seq 1 "$BENCH_RUNS"); do
    "$BUILD_DIR"/bench/micro_serve --users=12 --days=2 --requests=4096 \
      --threads_list=1 --shards_list=1,8 --require_shadow_overhead=0.15 \
      --require_tick_overhead=0.05 \
      "${SHARD_SCALING_ARGS[@]}" \
      --timing_json="$BENCH_OUT/serve_$run.json" \
      --metrics_json="$BENCH_OUT/serve_metrics_$run.json" >/dev/null
    "$BUILD_DIR"/bench/micro_parallel \
      '--benchmark_filter=(BM_ParallelForOverhead|BM_RandomForestPredictThreads)/1$' \
      --benchmark_out="$BENCH_OUT/parallel_$run.json" \
      --benchmark_out_format=json \
      --metrics_json="$BENCH_OUT/parallel_metrics_$run.json" >/dev/null 2>&1
    # The filter matches nothing: only the --timing_json gate workload runs
    # (flat vs pointer forest inference + point-feature kernels, 1 thread).
    "$BUILD_DIR"/bench/micro_ml --threads=1 '--benchmark_filter=^$' \
      --timing_json="$BENCH_OUT/ml_$run.json" >/dev/null 2>&1
    # micro_store exits nonzero on its own if the indexed bbox path is
    # not >=10x faster than the oracle scan or any result diverges.
    "$BUILD_DIR"/bench/micro_store --segments=20000 --queries=400 \
      --timing_json="$BENCH_OUT/store_$run.json" >/dev/null
    GATE_FILES+=("$BENCH_OUT/serve_$run.json" "$BENCH_OUT/parallel_$run.json" \
                 "$BENCH_OUT/ml_$run.json" "$BENCH_OUT/store_$run.json")
  done
  python3 tools/check_bench.py --baseline=BENCH_baseline.json "${GATE_FILES[@]}"
fi

echo "==> CI green"
