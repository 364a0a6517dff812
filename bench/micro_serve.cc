// micro_serve — throughput and latency of the online serving stack.
//
// Phase A sweeps the ServingPlane over --shards_list (default 1,8): the
// point stream is partitioned by the plane's hash(user_id) routing and one
// writer thread per shard drives its SessionManager (segment close and
// the 70 features) concurrently — shard-per-core ingest scaling
// (ingest_t<S>_s; S=1 is the pre-shard single-writer baseline).
// --require_shard_scaling=R additionally fails the run unless the largest
// shard count ingests >= R times the shards=1 rate (CI passes it only on
// machines with enough cores).
//
// Then the shared pool sweeps --threads_list (default 1,2,4,8) and, per
// thread count, measures:
//   B. batched:     micro-batched prediction via BatchPredictor — request
//                   throughput and enqueue-to-completion latency
//                   p50/p90/p99.
//   C. per-request: the same async dispatch path with max_batch_size=1 —
//                   every request pays its own worker wakeup and forest
//                   pass. This is the baseline micro-batching must beat.
//   D. direct:      synchronous ServingModel::PredictOne loop (no
//                   dispatch at all) — the lower bound on serving
//                   overhead, printed as a reference.
//   E. overload:    open-loop flood of a bounded queue with per-request
//                   deadlines and mixed priorities — measures admission
//                   control + deadline enforcement under saturation
//                   (served/shed/expired split and survivor p99).
//
// Phase F measures the ingest-throughput cost of shadow scoring
// (serve/continuous_training.h): the corpus is replay-ingested through a
// single-shard plane plain, then again with the same model republished as
// the shadow candidate (worst case: shadow as expensive as active) and a
// ShadowEvaluator wired in. Both runs are warmed and best-of-3; the
// shadowed ingest time is recorded as shadow_overhead_t1_s, and
// --require_shadow_overhead=R fails the run when the relative overhead
// exceeds R (CI passes 0.15 — the shadow must ride the worker thread, not
// the ingest path).
//
// Phase G measures the ingest cost of the live telemetry plane: the same
// ingest loop with a TimeSeriesStore + SloEngine ticking every 16 closed
// segments (4x the serve-replay default rate), predictions submitted only
// after the timed loop in both arms. Recorded as
// timeseries_tick_t1_s (best of 31); --require_tick_overhead=R fails the
// run when the median ticked/plain ratio of the 31 paired repetitions
// exceeds 1+R (CI passes 0.05 — a tick is a handful of relaxed loads, it
// must not show up in ingest throughput).
//
// Flags: --users/--days/--seed (corpus), --trees, --batch,
// --overload_deadline_ms, --shards_list=1,8, --require_shard_scaling=R,
// --require_shadow_overhead=R, --require_tick_overhead=R,
// --threads_list=1,2,4,8, --timing_json=FILE,
// plus the shared --trace_json/--trace_test/--trace_sample/--trace_buffer
// (flight recorder off unless a trace output is requested, so the perf
// gate measures the untraced path).
//
//   ./micro_serve --users=30 --days=4 --timing_json=BENCH_serve.json

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/strings.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "ml/random_forest.h"
#include "serve/batch_predictor.h"
#include "serve/model_registry.h"
#include "serve/serve_config.h"
#include "serve/serving_plane.h"
#include "serve/session_manager.h"
#include "serve/shadow_evaluator.h"
#include "stats/descriptive.h"
#include "synthgeo/generator.h"
#include "traj/trajectory_features.h"

namespace trajkit::bench {
namespace {

std::vector<int> ParseIntList(const Flags& flags, const char* name,
                              const char* fallback) {
  std::vector<int> values;
  const std::string list = flags.GetString(name, fallback);
  for (const std::string_view token : SplitString(list, ',')) {
    values.push_back(static_cast<int>(DieOnError(ParseInt64(token), name)));
  }
  return values;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const HarnessOptions harness = HarnessOptions::FromFlags(flags);
  harness.ApplyThreads();
  harness.ConfigureTracing();
  TimingJson timings("micro_serve", harness);

  // Shared serving flag surface (serve/serve_config.h).
  auto config_or =
      serve::ParseServeFlags(flags, serve::MicroServeDefaults());
  if (!config_or.ok()) {
    std::fprintf(stderr, "micro_serve: %s\n",
                 config_or.status().ToString().c_str());
    return 2;
  }
  const serve::ServeConfig& config = config_or.value();

  // Corpus + a forest trained offline on the same features.
  synthgeo::GeneratorOptions generator_options;
  generator_options.num_users = config.users;
  generator_options.days_per_user = config.days;
  generator_options.seed = config.seed;
  synthgeo::GeoLifeLikeGenerator generator(generator_options);
  const std::vector<traj::Trajectory> corpus = generator.Generate();
  const core::LabelSet labels = core::LabelSet::Dabiri();
  const core::Pipeline pipeline;
  const ml::Dataset dataset =
      DieOnError(pipeline.BuildDataset(corpus, labels), "pipeline");
  ml::RandomForestParams params;
  params.n_estimators = config.trees;
  ml::RandomForest forest(params);
  if (const Status status = forest.Fit(dataset); !status.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  serve::ModelRegistry registry;
  if (const Status status = registry.Publish(DieOnError(
          serve::MakeServingModel("bench-v1", std::move(forest),
                                  traj::kNumTrajectoryFeatures),
          "serving model"));
      !status.ok()) {
    std::fprintf(stderr, "registry failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  // The point stream, in per-user order (what the session layer consumes),
  // and the closed-segment feature vectors (phase B/C input) computed once
  // up front so prediction phases measure prediction only.
  size_t total_points = 0;
  for (const traj::Trajectory& trajectory : corpus) {
    total_points += trajectory.points.size();
  }
  std::vector<std::vector<double>> segment_features;
  {
    serve::SessionManager sessions;
    std::vector<serve::ClosedSegment> closed;
    for (const traj::Trajectory& trajectory : corpus) {
      for (const traj::TrajectoryPoint& point : trajectory.points) {
        sessions.Ingest(trajectory.user_id, point, &closed);
      }
    }
    sessions.FlushAll(&closed);
    for (serve::ClosedSegment& segment : closed) {
      segment_features.push_back(std::move(segment.features));
    }
  }
  const serve::BatchPredictorOptions batching =
      config.MakeBatchingOptions();
  // Prediction phases cycle the segment features into a longer request
  // stream so steady-state batching (not the one trailing deadline stall)
  // is what gets measured.
  const size_t num_requests = static_cast<size_t>(
      flags.GetInt("requests", 8192));
  // Closed loop with a bounded in-flight window: keeps the predictor
  // saturated while latency percentiles reflect batching delay, not the
  // depth of a pre-filled queue.
  const size_t window = 4 * batching.max_batch_size;

  std::printf("corpus: %zu points -> %zu segments; forest: %d trees; "
              "%zu requests/phase\n",
              total_points, segment_features.size(), params.n_estimators,
              num_requests);

  // Phase A: sharded ingest scaling. One writer thread per shard drives
  // its shard's SessionManager — the single-writer-per-shard contract —
  // over the plane's own hash(user_id) partition of the corpus.
  std::printf("%8s %12s %9s\n", "shards", "ingest/s", "speedup");
  double shard1_rate = 0.0;
  double max_shards_rate = 0.0;
  int max_shards = 1;
  for (const int shards : ParseIntList(flags, "shards_list", "1,8")) {
    serve::ServingPlaneOptions plane_options;
    plane_options.shards = static_cast<size_t>(shards);
    serve::ServingPlane plane(&registry, plane_options);
    std::vector<std::vector<const traj::Trajectory*>> partition(
        plane.num_shards());
    for (const traj::Trajectory& trajectory : corpus) {
      partition[plane.ShardOf(trajectory.user_id)].push_back(&trajectory);
    }
    Stopwatch watch;
    {
      std::vector<std::thread> writers;
      writers.reserve(plane.num_shards());
      for (size_t s = 0; s < plane.num_shards(); ++s) {
        writers.emplace_back([&plane, &partition, s] {
          std::vector<serve::ClosedSegment> closed;
          serve::SessionManager& sessions = plane.sessions(s);
          for (const traj::Trajectory* trajectory : partition[s]) {
            for (const traj::TrajectoryPoint& point : trajectory->points) {
              sessions.Ingest(trajectory->user_id, point, &closed);
            }
          }
        });
      }
      for (std::thread& writer : writers) writer.join();
      std::vector<serve::ClosedSegment> closed;
      plane.FlushAll(&closed);
    }
    const double ingest_seconds = watch.ElapsedSeconds();
    const double ingest_rate =
        static_cast<double>(total_points) / ingest_seconds;
    if (shards == 1) shard1_rate = ingest_rate;
    if (shards >= max_shards) {
      max_shards = shards;
      max_shards_rate = ingest_rate;
    }
    std::printf("%8d %12.0f %8.2fx\n", shards, ingest_rate,
                shard1_rate > 0.0 ? ingest_rate / shard1_rate : 0.0);
    timings.Record(StrPrintf("ingest_t%d_s", shards), ingest_seconds);
  }
  // Self-gate for the scaling claim: on a machine with the cores to back
  // it, shards must actually buy throughput (CI sizes R to the host).
  const double require_scaling =
      flags.GetDouble("require_shard_scaling", 0.0);
  if (require_scaling > 0.0 && shard1_rate > 0.0) {
    const double speedup = max_shards_rate / shard1_rate;
    if (speedup < require_scaling) {
      std::fprintf(stderr,
                   "micro_serve: %d-shard ingest is only %.2fx the 1-shard "
                   "rate (--require_shard_scaling=%.2f)\n",
                   max_shards, speedup, require_scaling);
      return 1;
    }
    std::printf("shard scaling gate: %.2fx >= %.2fx at %d shards\n", speedup,
                require_scaling, max_shards);
  }

  const std::shared_ptr<const serve::ServingModel> model =
      registry.Acquire().active;

  // Closed loop through a BatchPredictor: up to `window` requests in
  // flight, harvesting the oldest before each new submit. Returns
  // enqueue-to-completion latencies.
  const auto run_closed_loop =
      [&](const serve::BatchPredictorOptions& options) {
        std::vector<double> latencies;
        latencies.reserve(num_requests);
        serve::BatchPredictor predictor(&registry, options);
        std::vector<std::future<Result<serve::Prediction>>> futures;
        futures.reserve(num_requests);
        for (size_t i = 0; i < num_requests; ++i) {
          if (i >= window) {
            latencies.push_back(
                DieOnError(futures[i - window].get(), "predict")
                    .latency_seconds);
          }
          futures.push_back(predictor.Submit(serve::PredictRequest(
              segment_features[i % segment_features.size()])));
        }
        for (size_t i = num_requests >= window ? num_requests - window : 0;
             i < num_requests; ++i) {
          latencies.push_back(
              DieOnError(futures[i].get(), "predict").latency_seconds);
        }
        return latencies;
      };

  // Phase F: shadow-scoring ingest overhead at one thread. Shadow
  // scoring runs on the predictor's worker thread, so the claim to pin is
  // that it stays OFF the ingest hot path: the replay-style ingest loop
  // (points -> sessions -> submit-on-close) is timed once plain and once
  // with the active model republished into the shadow slot (the worst
  // case — the shadow costs exactly as much as the active) and a
  // ShadowEvaluator installed. The shadowed ingest wall time lands in the
  // perf baseline as shadow_overhead_t1_s; --require_shadow_overhead=R
  // self-gates the relative ingest-throughput overhead.
  //
  // With submit_after_timing, closed segments are held back and submitted
  // only after the stopwatch stops, so the timed loop is ingest (+ ticks)
  // alone: the predictor's worker, which answers each request as soon as
  // it is submitted, does not interleave with what is being compared.
  const auto run_ingest_loop =
      [&](const serve::BatchPredictorOptions& options,
          bool submit_after_timing = false, size_t tick_every = 0,
          const std::function<void()>& tick = {}) {
        serve::ServingPlaneOptions plane_options;
        plane_options.batching = options;
        serve::ServingPlane plane(&registry, plane_options);
        std::vector<serve::ClosedSegment> closed;
        std::vector<serve::ClosedSegment> held;
        std::vector<std::future<Result<serve::Prediction>>> futures;
        futures.reserve(segment_features.size());
        size_t segments_closed = 0;
        size_t next_tick = tick_every;
        const auto submit = [&](std::vector<serve::ClosedSegment>& segments) {
          for (serve::ClosedSegment& segment : segments) {
            futures.push_back(plane.Submit(
                segment.user_id,
                serve::PredictRequest(std::move(segment.features))));
          }
          segments.clear();
        };
        const auto submit_closed = [&] {
          segments_closed += closed.size();
          if (submit_after_timing) {
            std::move(closed.begin(), closed.end(), std::back_inserter(held));
            closed.clear();
          } else {
            submit(closed);
          }
          while (next_tick > 0 && segments_closed >= next_tick) {
            tick();
            next_tick += tick_every;
          }
        };
        Stopwatch watch;
        for (const traj::Trajectory& trajectory : corpus) {
          for (const traj::TrajectoryPoint& point : trajectory.points) {
            plane.Ingest(trajectory.user_id, point, &closed);
            if (!closed.empty()) submit_closed();
          }
        }
        plane.FlushAll(&closed);
        submit_closed();
        const double ingest_seconds = watch.ElapsedSeconds();
        submit(held);
        plane.FlushPredictors();
        for (auto& future : futures) {
          DieOnError(future.get(), "shadow-phase predict");
        }
        return ingest_seconds;
      };
  {
    SetMaxThreads(1);
    run_ingest_loop(batching);  // Warmup: touch-fault both loops' memory.
    if (const Status status =
            registry.Publish("bench-v1", serve::ModelRole::kShadow);
        !status.ok()) {
      std::fprintf(stderr, "shadow publish failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    serve::ShadowEvaluator evaluator;
    serve::BatchPredictorOptions shadowed = batching;
    shadowed.shadow_evaluator = &evaluator;
    // Best-of-3, interleaved: the phase is ~tens of milliseconds, so a
    // single pair of runs is scheduling-noise-dominated.
    double plain_seconds = 0.0;
    double shadow_seconds = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const double plain = run_ingest_loop(batching);
      if (rep == 0 || plain < plain_seconds) plain_seconds = plain;
      evaluator.StartWindow("bench-v1", /*cost_ratio=*/1.0);
      const double shadow = run_ingest_loop(shadowed);
      evaluator.EndWindow();
      if (rep == 0 || shadow < shadow_seconds) shadow_seconds = shadow;
    }
    if (const Status status = registry.RetireShadow("bench teardown");
        !status.ok()) {
      std::fprintf(stderr, "shadow retire failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    const double overhead =
        plain_seconds > 0.0 ? shadow_seconds / plain_seconds - 1.0 : 0.0;
    std::printf("shadow scoring: ingest %.3f s plain vs %.3f s shadowed "
                "at 1 thread (%+.1f%% overhead, %zu shadow samples)\n",
                plain_seconds, shadow_seconds, overhead * 100.0,
                evaluator.window().scored);
    timings.Record("shadow_overhead_t1_s", shadow_seconds);
    const double require_overhead =
        flags.GetDouble("require_shadow_overhead", 0.0);
    if (require_overhead > 0.0 && overhead > require_overhead) {
      std::fprintf(stderr,
                   "micro_serve: shadow scoring costs %+.1f%% ingest "
                   "throughput (--require_shadow_overhead=%.2f allows "
                   "%.0f%%)\n",
                   overhead * 100.0, require_overhead,
                   require_overhead * 100.0);
      return 1;
    }
  }

  // Phase G: telemetry tick overhead at one thread. The live telemetry
  // plane (obs/timeseries.h + obs/slo.h) samples at ingest barriers, so
  // the claim to pin is that a tick — sampling every tracked series plus
  // a burn-rate evaluation — is cheap enough to ride the ingest loop.
  // The same replay-style ingest is timed plain and with a
  // TimeSeriesStore + SloEngine ticking every 16 closed segments (the
  // serve-replay default is 64 — this measures 4x the production tick
  // rate). Recorded as timeseries_tick_t1_s; --require_tick_overhead=R
  // self-gates the median paired ticked/plain ratio (CI passes 0.05).
  {
    SetMaxThreads(1);
    obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
    obs::TimeSeriesStore store(global);
    for (const char* name :
         {"serve.sessions.points_ingested", "serve.sessions.segments_emitted",
          "serve.batch_predictor.requests", "serve.shed_total.queue_full",
          "serve.shed_total.preempted", "serve.deadline_exceeded_total",
          "serve.degraded_total.previous_model",
          "serve.degraded_total.majority_class"}) {
      store.TrackCounter(name);
    }
    std::vector<obs::SloSpec> slo_specs;
    std::string slo_error;
    if (!obs::ParseSloSpecs(
            "shed:type=ratio,bad=serve.shed_total.queue_full+"
            "serve.shed_total.preempted,total=serve.batch_predictor.requests,"
            "budget=0.02,fast=4,slow=16",
            &slo_specs, &slo_error)) {
      std::fprintf(stderr, "micro_serve: bad bench SLO spec: %s\n",
                   slo_error.c_str());
      return 1;
    }
    obs::SloEngine slo(&store, &global, std::move(slo_specs));
    uint64_t tick_index = 0;
    const auto tick = [&] {
      store.Tick(static_cast<double>(tick_index));
      slo.Evaluate(tick_index);
      ++tick_index;
    };
    // Predictions are submitted after the timed loop in both arms: the
    // claim is about the tick, and a worker answering mid-loop would only
    // add scheduling noise to the ratio.
    run_ingest_loop(batching, /*submit_after_timing=*/true);  // Warmup.
    double plain_seconds = 0.0;
    double ticked_seconds = 0.0;
    // 31 pairs: the median of their ratios ignores up to 15
    // repetitions disturbed by the host.
    constexpr int kTickPairs = 31;
    std::vector<double> ratios;
    for (int rep = 0; rep < kTickPairs; ++rep) {
      const double plain =
          run_ingest_loop(batching, /*submit_after_timing=*/true);
      if (rep == 0 || plain < plain_seconds) plain_seconds = plain;
      const double ticked = run_ingest_loop(
          batching, /*submit_after_timing=*/true, /*tick_every=*/16, tick);
      if (rep == 0 || ticked < ticked_seconds) ticked_seconds = ticked;
      if (plain > 0.0) ratios.push_back(ticked / plain);
    }
    // The gate reads the median of the paired ticked/plain ratios: the two
    // arms of a pair run back to back, so host drift cancels within the
    // pair.
    const double overhead =
        ratios.empty() ? 0.0 : stats::Median(ratios) - 1.0;
    std::printf("telemetry tick: ingest %.3f s plain vs %.3f s ticked at 1 "
                "thread (%+.1f%% median paired overhead, %llu ticks, %zu "
                "series)\n",
                plain_seconds, ticked_seconds, overhead * 100.0,
                static_cast<unsigned long long>(tick_index),
                store.series_count());
    timings.Record("timeseries_tick_t1_s", ticked_seconds);
    const double require_tick_overhead =
        flags.GetDouble("require_tick_overhead", 0.0);
    if (require_tick_overhead > 0.0 && overhead > require_tick_overhead) {
      std::fprintf(stderr,
                   "micro_serve: telemetry ticks cost %+.1f%% ingest "
                   "throughput (--require_tick_overhead=%.2f allows "
                   "%.0f%%)\n",
                   overhead * 100.0, require_tick_overhead,
                   require_tick_overhead * 100.0);
      return 1;
    }
  }

  std::printf("%8s %12s %12s %12s %9s %9s %9s\n", "threads",
              "batched/s", "per-req/s", "direct/s", "p50_ms",
              "p90_ms", "p99_ms");

  for (const int threads : ParseIntList(flags, "threads_list", "1,2,4,8")) {
    SetMaxThreads(threads);

    // Phase B: micro-batched dispatch.
    Stopwatch watch;
    const std::vector<double> latencies = run_closed_loop(batching);
    const double batched_seconds = watch.ElapsedSeconds();
    const double batched_rate =
        static_cast<double>(num_requests) / batched_seconds;
    const double p50 = stats::Percentile(latencies, 50.0);
    const double p90 = stats::Percentile(latencies, 90.0);
    const double p99 = stats::Percentile(latencies, 99.0);

    // Phase C: per-request dispatch — the same path, batches of one.
    serve::BatchPredictorOptions singles = batching;
    singles.max_batch_size = 1;
    watch.Reset();
    run_closed_loop(singles);
    const double per_request_seconds = watch.ElapsedSeconds();
    const double per_request_rate =
        static_cast<double>(num_requests) / per_request_seconds;

    // Phase D: the synchronous lower bound, no dispatch machinery at all.
    watch.Reset();
    for (size_t i = 0; i < num_requests; ++i) {
      DieOnError(
          model->PredictOne(segment_features[i % segment_features.size()]),
          "direct predict");
    }
    const double direct_seconds = watch.ElapsedSeconds();
    const double direct_rate =
        static_cast<double>(num_requests) / direct_seconds;

    // Phase E: overload — an open loop (no in-flight window) slams the
    // whole request stream into a small bounded queue with per-request
    // deadlines and mixed priorities. Admission control sheds, the
    // deadline sweep expires, and whatever survives is served; latency
    // percentiles cover the survivors only and are bounded above by the
    // deadline, which keeps the perf-gate keys stable.
    serve::BatchPredictorOptions overload = batching;
    overload.max_queue = 4 * batching.max_batch_size;
    const double overload_deadline_s =
        flags.GetDouble("overload_deadline_ms", 20.0) * 1e-3;
    watch.Reset();
    size_t served = 0;
    size_t shed = 0;
    size_t expired = 0;
    std::vector<double> overload_latencies;
    {
      serve::BatchPredictor predictor(&registry, overload);
      std::vector<std::future<Result<serve::Prediction>>> futures;
      futures.reserve(num_requests);
      for (size_t i = 0; i < num_requests; ++i) {
        serve::RequestContext context =
            serve::RequestContext::WithTimeout(overload_deadline_s);
        context.priority = static_cast<int>(i % 3);
        futures.push_back(predictor.Submit(serve::PredictRequest(
            segment_features[i % segment_features.size()], context)));
      }
      predictor.Flush();
      for (auto& future : futures) {
        const auto result = future.get();
        if (result.ok()) {
          ++served;
          overload_latencies.push_back(result.value().latency_seconds);
        } else if (result.status().code() ==
                   StatusCode::kResourceExhausted) {
          ++shed;
        } else if (result.status().code() ==
                   StatusCode::kDeadlineExceeded) {
          ++expired;
        } else {
          DieOnError(result, "overload predict");
        }
      }
    }
    const double overload_seconds = watch.ElapsedSeconds();
    const double overload_p99 =
        overload_latencies.empty()
            ? 0.0
            : stats::Percentile(overload_latencies, 99.0);

    std::printf("%8d %12.0f %12.0f %12.0f %9.3f %9.3f %9.3f\n",
                threads, batched_rate, per_request_rate,
                direct_rate, p50 * 1e3, p90 * 1e3, p99 * 1e3);
    std::printf("%8s overload: %zu served, %zu shed, %zu expired, "
                "p99 %.3f ms in %.3f s\n",
                "", served, shed, expired, overload_p99 * 1e3,
                overload_seconds);
    const std::string suffix = StrPrintf("_t%d_s", threads);
    timings.Record("predict_batched" + suffix, batched_seconds);
    timings.Record("predict_per_request" + suffix, per_request_seconds);
    timings.Record("predict_direct" + suffix, direct_seconds);
    timings.Record(StrPrintf("latency_batched_t%d_p50_s", threads), p50);
    timings.Record(StrPrintf("latency_batched_t%d_p90_s", threads), p90);
    timings.Record(StrPrintf("latency_batched_t%d_p99_s", threads), p99);
    timings.Record("overload" + suffix, overload_seconds);
    timings.Record(StrPrintf("latency_overload_t%d_p99_s", threads),
                   overload_p99);
  }
  timings.Write();
  if (!harness.DumpTrace()) return 1;
  return 0;
}

}  // namespace
}  // namespace trajkit::bench

int main(int argc, char** argv) { return trajkit::bench::Main(argc, argv); }
