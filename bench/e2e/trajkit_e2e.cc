// trajkit_e2e — driver of the end-to-end serving benchmark
// (bench/e2e/README.md; run it through run.py, which builds and pins it).
//
//   trajkit_e2e --workload=trips|windowed|ct|live --out=RESULT.json
//               [--seed=7] [--users=60] [--days=8] [--seconds=10]
//               [--min_passes=3] [--trace=0|1] [--trace_out=TRACE.json]
//
// Generates the corpus from --seed (the load generator, not timed), times
// the set-up three times, drops one warm-up pass, then repeats timed passes
// until --seconds are measured and at least --min_passes ran. --trace=1
// adds three traced passes and the predict-path probe. The correctness
// checks run after all timing. Every metric, check and host fact goes to
// --out; the exit code is 1 when any check failed.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/pipeline.h"
#include "e2e.h"
#include "ml/random_forest.h"
#include "stats/descriptive.h"
#include "synthgeo/generator.h"
#include "traj/trajectory_features.h"

namespace trajkit::e2e {
namespace {

constexpr size_t kMaxPoints = 700000;
constexpr int kSetupReps = 3;
constexpr int kTracedPasses = 3;
constexpr int kProbeReps = 5;
constexpr uint64_t kCalibIterations = 40'000'000;

std::atomic<uint64_t> g_spin_sink{0};

/// A fixed xorshift loop: host speed in ms, before and after the workload.
double SpinMs(uint64_t iterations) {
  const Stopwatch watch;
  uint64_t x = 88172645463325252ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink.fetch_add(x, std::memory_order_relaxed);
  return watch.ElapsedMillis();
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// k concurrent spin loops on the k CPUs this process may use, against
/// one: k * t1 / tk cores really run in parallel.
double EffectiveCores(int cpus) {
  const double one = SpinMs(kCalibIterations / 4);
  const Stopwatch watch;
  std::vector<std::thread> threads;
  for (int i = 0; i < cpus; ++i) {
    threads.emplace_back([] { SpinMs(kCalibIterations / 4); });
  }
  for (std::thread& thread : threads) thread.join();
  return static_cast<double>(cpus) * one / watch.ElapsedMillis();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Pct(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : stats::Percentile(values, p);
}

double Median(const std::vector<double>& values) { return Pct(values, 50.0); }

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Metrics and checks of one run, written as the --out JSON.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(StrPrintf("\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                                 name.c_str(), value, unit.c_str()));
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    ok_ = ok_ && ok;
    checks_.push_back(StrPrintf("{\"name\":\"%s\",\"ok\":%s,\"detail\":\"%s\"}",
                                name.c_str(), ok ? "true" : "false",
                                JsonEscape(detail).c_str()));
    if (!ok) {
      std::fprintf(stderr, "trajkit_e2e: check %s FAILED: %s\n", name.c_str(),
                   detail.c_str());
    }
  }
  bool ok() const { return ok_; }

  bool Write(const std::string& path, const std::string& header) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "{%s,\"correct\":%s,\n\"checks\":[", header.c_str(),
                 ok_ ? "true" : "false");
    for (size_t i = 0; i < checks_.size(); ++i) {
      std::fprintf(file, "%s\n%s", i == 0 ? "" : ",", checks_[i].c_str());
    }
    std::fprintf(file, "],\n\"metrics\":{");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(file, "%s\n%s", i == 0 ? "" : ",", metrics_[i].c_str());
    }
    std::fprintf(file, "}}\n");
    return std::fclose(file) == 0;
  }

 private:
  bool ok_ = true;
  std::vector<std::string> metrics_;
  std::vector<std::string> checks_;
};

/// Cuts the corpus to the first kMaxPoints points of the replay stream (a
/// prefix of every user's trajectory) so that each seed replays the same
/// number of points. Uncut, corpus size varies by +-12% across seeds, and
/// pass length and memory with it.
void CutCorpus(std::vector<traj::Trajectory>* corpus) {
  const std::vector<MergedPoint> merged = MergeByTimestamp(*corpus);
  if (merged.size() <= kMaxPoints) return;
  std::vector<size_t> keep(corpus->size(), 0);
  for (size_t i = 0; i < kMaxPoints; ++i) {
    keep[merged[i].trajectory] = merged[i].point + 1;
  }
  for (size_t t = 0; t < corpus->size(); ++t) {
    (*corpus)[t].points.resize(keep[t]);
    (*corpus)[t].points.shrink_to_fit();
  }
}

/// The set-up a deployment pays before serving: offline dataset, forest
/// fit, serving model (validation) and publish (flat compile).
struct Setup {
  std::vector<double> seconds;
  ml::Dataset dataset;
  serve::ServingModel model;
};

Setup RunSetup(const Env& env) {
  Setup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Stopwatch watch;
    const core::Pipeline pipeline;
    ml::Dataset dataset =
        OrDie(pipeline.BuildDataset(env.corpus, env.labels), "pipeline");
    ml::RandomForest forest;  // The paper's forest: 50 trees.
    OrDie(forest.Fit(dataset), "forest fit");
    serve::ServingModel model =
        OrDie(serve::MakeServingModel("e2e-v1", std::move(forest),
                                      traj::kNumTrajectoryFeatures),
              "serving model");
    serve::ModelRegistry registry;
    OrDie(registry.Publish(std::move(model)), "registry publish");
    setup.seconds.push_back(watch.ElapsedSeconds());
    setup.dataset = std::move(dataset);
    setup.model = *registry.Acquire().active;
  }
  return setup;
}

/// Per-row cost of each step of the serving predict path, on one pass's
/// request rows cut into chunks of that pass's mean batch size. Medians of
/// kProbeReps sweeps.
void ProbePredictPath(const serve::ServingModel& model,
                      const std::vector<std::vector<double>>& rows,
                      size_t chunk, Report* report) {
  if (rows.empty()) return;
  serve::ModelRegistry registry;
  OrDie(registry.Publish(model), "probe publish");
  std::vector<std::vector<std::vector<double>>> chunks;
  for (size_t begin = 0; begin < rows.size(); begin += chunk) {
    const size_t end = std::min(rows.size(), begin + chunk);
    chunks.emplace_back(rows.begin() + static_cast<ptrdiff_t>(begin),
                        rows.begin() + static_cast<ptrdiff_t>(end));
  }
  std::vector<ml::Matrix> prepared;
  for (const auto& batch : chunks) {
    prepared.push_back(OrDie(model.PrepareBatch(batch), "probe prepare"));
  }
  std::vector<double> acquire, prepare, predict, proba, predict_batch;
  uint64_t sink = 0;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    Stopwatch watch;
    for (size_t c = 0; c < chunks.size(); ++c) {
      sink += registry.Acquire().seq;
    }
    acquire.push_back(watch.ElapsedSeconds());
    watch.Reset();
    for (const auto& batch : chunks) {
      sink += OrDie(model.PrepareBatch(batch), "probe prepare").rows();
    }
    prepare.push_back(watch.ElapsedSeconds());
    watch.Reset();
    for (const ml::Matrix& matrix : prepared) {
      sink += model.forest.Predict(matrix).size();
    }
    predict.push_back(watch.ElapsedSeconds());
    watch.Reset();
    for (const ml::Matrix& matrix : prepared) {
      sink += OrDie(model.forest.PredictProba(matrix), "probe proba").rows();
    }
    proba.push_back(watch.ElapsedSeconds());
    watch.Reset();
    for (const auto& batch : chunks) {
      sink += OrDie(model.PredictBatch(batch), "probe predict").size();
    }
    predict_batch.push_back(watch.ElapsedSeconds());
  }
  g_spin_sink.fetch_add(sink, std::memory_order_relaxed);
  const double per_row = 1e6 / static_cast<double>(rows.size());
  report->Add("serve.registry.acquire_ns",
              Median(acquire) * 1e9 / static_cast<double>(chunks.size()),
              "ns");
  report->Add("serve.registry.prepare_us_per_row", Median(prepare) * per_row,
              "us");
  report->Add("ml.forest.predict_us_per_row", Median(predict) * per_row, "us");
  report->Add("ml.forest.proba_us_per_row", Median(proba) * per_row, "us");
  report->Add("serve.registry.predict_batch_us_per_row",
              Median(predict_batch) * per_row, "us");
  report->Add("serve.probe.chunk_rows", static_cast<double>(chunk), "count");
}

std::string Tally(const serve::ContinuousTrainer::Stats& s) {
  return StrPrintf(
      "observed=%zu steps=%zu refits=%zu/%zu failures=%zu shadows=%zu "
      "promotions=%zu rejections=%zu drift=%zu",
      s.segments_observed, s.steps, s.refits_launched, s.refits_completed,
      s.fit_failures, s.shadows_installed, s.promotions, s.rejections,
      s.drift_triggers);
}

/// Every request resolved exactly one way, every close was seen by the
/// plane's sink and (with a store) delivered, and the counters agree.
std::string LifecycleError(const PassResult& pass, size_t total_points,
                           const Workload& workload) {
  const size_t accounted =
      pass.evaluated + pass.shed + pass.deadline_exceeded + pass.errors;
  if (accounted != pass.submitted) {
    return StrPrintf("%zu submitted but %zu accounted", pass.submitted,
                     accounted);
  }
  if (pass.submitted + pass.outside_label_set != pass.segments_closed) {
    return StrPrintf("%zu closed != %zu submitted + %zu outside label set",
                     pass.segments_closed, pass.submitted,
                     pass.outside_label_set);
  }
  if (pass.points != total_points ||
      pass.session.points_ingested + pass.session.points_dropped_out_of_order !=
          total_points) {
    return StrPrintf("%zu points ingested of %zu", pass.points, total_points);
  }
  if (pass.session.segments_emitted != pass.segments_closed) {
    return StrPrintf("session emitted %zu segments, driver saw %zu",
                     pass.session.segments_emitted, pass.segments_closed);
  }
  if (pass.batch.requests != pass.submitted) {
    return StrPrintf("predictor accepted %zu of %zu requests",
                     pass.batch.requests, pass.submitted);
  }
  if (!workload.live && (pass.close_stamps != pass.segments_closed ||
                         pass.deliveries != pass.segments_closed)) {
    return StrPrintf("%zu closes stamped, %zu delivered, %zu closed",
                     pass.close_stamps, pass.deliveries, pass.segments_closed);
  }
  return "";
}

/// Per-layer metrics of a traced pass. A part is reported when the pass
/// made that call at least once; layers a workload does not wire (sink,
/// ticks, CT, pacing) report nothing.
void AddTracedMetrics(const Workload& workload, const PassResult& traced,
                      double untraced_median_s, Report* report) {
  const PassTracer& trace = traced.trace;
  for (int part = 0; part < kNumParts; ++part) {
    if (trace.calls(static_cast<Part>(part)) == 0) continue;
    report->Add(kPartMetric[part], trace.seconds(static_cast<Part>(part)),
                "s");
  }
  const auto per = [](double seconds, size_t count, double scale) {
    return count == 0 ? 0.0 : seconds / static_cast<double>(count) * scale;
  };
  report->Add("serve.session.ingest_ns_per_point",
              per(trace.seconds(kIngest), trace.calls(kIngest), 1e9), "ns");
  report->Add("serve.session.close_us_per_segment",
              per(trace.seconds(kClose), traced.segments_closed, 1e6), "us");
  report->Add("serve.plane.submit_us_per_request",
              per(trace.seconds(kSubmit), traced.submitted, 1e6), "us");
  if (!workload.live) {
    report->Add("store.ingest_us_per_segment",
                per(trace.seconds(kStoreIngest), traced.deliveries, 1e6),
                "us");
    report->Add("store.segments", static_cast<double>(traced.deliveries),
                "count");
  }
  if (workload.config.telemetry_enabled()) {
    report->Add("obs.ticks", static_cast<double>(traced.ticks), "count");
  }
  if (workload.config.ct.enabled) {
    const serve::ContinuousTrainer::Stats& training = traced.training;
    report->Add("serve.ct.steps", static_cast<double>(training.steps),
                "count");
    report->Add("serve.ct.refits",
                static_cast<double>(training.refits_launched), "count");
    report->Add("serve.ct.promotions",
                static_cast<double>(training.promotions), "count");
    report->Add("serve.ct.rejections",
                static_cast<double>(training.rejections), "count");
  }

  const serve::BatchPredictor::Counters& batch = traced.batch;
  const double mean_size =
      batch.batches == 0 ? 0.0
                         : static_cast<double>(batch.requests) /
                               static_cast<double>(batch.batches);
  report->Add("serve.batch.requests", static_cast<double>(batch.requests),
              "count");
  report->Add("serve.batch.batches", static_cast<double>(batch.batches),
              "count");
  report->Add("serve.batch.mean_size", mean_size, "count");
  report->Add("serve.batch.max_size", static_cast<double>(batch.max_batch),
              "count");
  report->Add("serve.batch.fill_frac",
              mean_size / static_cast<double>(
                              serve::BatchPredictorOptions{}.max_batch_size),
              "ratio");
  report->Add("serve.batch.shed", static_cast<double>(batch.shed), "count");
  report->Add("serve.batch.deadline_exceeded",
              static_cast<double>(batch.deadline_exceeded), "count");
  report->Add("serve.batch.degraded", static_cast<double>(batch.degraded),
              "count");
  report->Add("serve.session.points",
              static_cast<double>(traced.session.points_ingested), "count");
  report->Add("serve.session.segments",
              static_cast<double>(traced.session.segments_emitted), "count");
  report->Add("serve.session.out_of_order",
              static_cast<double>(traced.session.points_dropped_out_of_order),
              "count");
  report->Add("serve.batch.enqueue_to_answer_p50_ms",
              Pct(traced.enqueue_to_answer_ms, 50.0), "ms");
  report->Add("serve.batch.enqueue_to_answer_p99_ms",
              Pct(traced.enqueue_to_answer_ms, 99.0), "ms");
  if (workload.live) {
    report->Add("live.gen_late_p50_ms", Pct(traced.gen_late_ms, 50.0), "ms");
    report->Add("live.gen_late_p99_ms", Pct(traced.gen_late_ms, 99.0), "ms");
    report->Add("live.backlog_max_points",
                static_cast<double>(traced.backlog_max_points), "count");
  }
  report->Add("serve.replay.unattributed_frac",
              (traced.wall_s - trace.total_seconds()) / traced.wall_s,
              "ratio");
  report->Add("trace.overhead_frac", traced.wall_s / untraced_median_s - 1.0,
              "ratio");
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::vector<Workload> workloads = MakeWorkloads();
  const std::string name = flags.GetString("workload", "");
  const auto found =
      std::find_if(workloads.begin(), workloads.end(),
                   [&name](const Workload& w) { return w.name == name; });
  const std::string out_path = flags.GetString("out", "");
  if (found == workloads.end() || out_path.empty()) {
    std::fprintf(stderr,
                 "usage: trajkit_e2e --workload=trips|windowed|ct|live "
                 "--out=RESULT.json [--seed=7] [--users=60] [--days=8] "
                 "[--seconds=10] [--min_passes=3] [--trace=0|1] "
                 "[--trace_out=TRACE.json]\n");
    return 2;
  }
  const Workload& workload = *found;
  const uint64_t seed = flags.GetUint64("seed", 7);
  const int users = flags.GetInt("users", 60);
  const int days = flags.GetInt("days", 8);
  const double seconds = flags.GetDouble("seconds", 10.0);
  const size_t min_passes =
      static_cast<size_t>(std::max(1, flags.GetInt("min_passes", 3)));
  const bool traced_run = flags.GetInt("trace", 0) != 0;

  // One pool thread: the host has about one effective core (README.md).
  SetMaxThreads(1);
  Report report;
  const int cpus = AffinityCpus();
  report.Add("host.calib_ms_before", SpinMs(kCalibIterations), "ms");
  const double effective_cores = EffectiveCores(cpus);

  Env env;
  {
    synthgeo::GeneratorOptions options;
    options.num_users = users;
    options.days_per_user = days;
    options.seed = seed;
    env.corpus = synthgeo::GeoLifeLikeGenerator(options).Generate();
  }
  CutCorpus(&env.corpus);
  size_t total_points = 0;
  for (const traj::Trajectory& trajectory : env.corpus) {
    total_points += trajectory.points.size();
  }

  Setup setup = RunSetup(env);
  env.model = setup.model;
  double merge_s = 0.0;
  if (workload.live) {
    const Stopwatch watch;
    env.schedule = MergeByTimestamp(env.corpus);
    merge_s = watch.ElapsedSeconds();
  }
  const auto run_pass = [&](size_t trace_spans, bool keep_rows) {
    return workload.live
               ? RunLivePass(env, workload, trace_spans, keep_rows)
               : RunReplayPass(env, workload, trace_spans, keep_rows);
  };
  std::fprintf(stderr,
               "trajkit_e2e: %s seed %llu: %zu points, set-up %.3f s\n",
               workload.name.c_str(), static_cast<unsigned long long>(seed),
               total_points, Median(setup.seconds));

  run_pass(0, false);  // Warm-up, dropped.
  std::vector<PassResult> passes;
  const double cpu_before = CpuSeconds();
  const Stopwatch budget;
  while (passes.size() < min_passes || budget.ElapsedSeconds() < seconds) {
    // The first timed pass keeps its request rows for the answer checks.
    passes.push_back(run_pass(0, passes.empty()));
  }
  const double cpu_per_pass =
      (CpuSeconds() - cpu_before) / static_cast<double>(passes.size());
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> walls;
  std::vector<double> answers;
  std::vector<double> pass_p99;
  size_t attempted = 0;
  size_t failed = 0;
  for (const PassResult& pass : passes) {
    walls.push_back(pass.wall_s);
    answers.insert(answers.end(), pass.answer_ms.begin(),
                   pass.answer_ms.end());
    pass_p99.push_back(Pct(pass.answer_ms, 99.0));
    const size_t accounted =
        pass.evaluated + pass.shed + pass.deadline_exceeded + pass.errors;
    attempted += pass.submitted;
    failed += pass.shed + pass.deadline_exceeded + pass.errors +
              (pass.submitted > accounted ? pass.submitted - accounted : 0);
  }
  const double median_wall = Median(walls);
  std::fprintf(stderr,
               "trajkit_e2e: %s: %zu timed passes, median %.3f s, %zu "
               "requests per pass\n",
               workload.name.c_str(), passes.size(), median_wall,
               passes.front().submitted);

  // End-to-end metrics (untraced passes).
  report.Add("setup_s", Median(setup.seconds), "s");
  report.Add("points_per_s", static_cast<double>(total_points) / median_wall,
             "points/s");
  report.Add("answer_p50_ms", Median(answers), "ms");
  report.Add("answer_p99_ms", Median(pass_p99), "ms");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  report.Add("failed_frac",
             attempted == 0 ? 0.0
                            : static_cast<double>(failed) /
                                  static_cast<double>(attempted),
             "ratio");
  report.Add("answer_samples", static_cast<double>(answers.size()), "count");
  if (workload.live) {
    // The highest percentile with >= 10 samples beyond it at the default
    // run length; reported, not gated.
    report.Add("live.answer_p999_ms", Pct(answers, 99.9), "ms");
  }
  report.Add("process.cpu_s_per_pass", cpu_per_pass, "s");

  // Traced passes, span export and predict-path probe.
  std::vector<PassResult> traced;
  if (traced_run) {
    // Span budget from the untraced pass: at most ~8 spans per closed
    // segment, a few per barrier, and (live) a sleep and an ingest run per
    // wake-up of the generator, which ingests >= 8 points per wake.
    const PassResult& shape = passes.front();
    const size_t spans = 10 * shape.segments_closed +
                         4 * (shape.ticks + shape.training.steps) +
                         total_points / 4 + 4096;
    for (int i = 0; i < kTracedPasses; ++i) {
      traced.push_back(run_pass(spans, i == 0));
    }
    // The per-layer numbers come from the traced pass of median wall time:
    // a single traced pass once read 61% tracing overhead, caught by a slow
    // moment of the host.
    std::vector<const PassResult*> by_wall;
    for (const PassResult& pass : traced) by_wall.push_back(&pass);
    std::sort(by_wall.begin(), by_wall.end(),
              [](const PassResult* a, const PassResult* b) {
                return a->wall_s < b->wall_s;
              });
    const PassResult& budget_pass = *by_wall[by_wall.size() / 2];
    AddTracedMetrics(workload, budget_pass, median_wall, &report);
    if (workload.live) report.Add(kPartMetric[kMerge], merge_s, "s");
    const std::string trace_out = flags.GetString("trace_out", "");
    if (!trace_out.empty() &&
        !budget_pass.trace.WriteChromeTrace(trace_out, workload.name)) {
      std::fprintf(stderr, "trajkit_e2e: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
    const double mean_batch =
        static_cast<double>(budget_pass.batch.requests) /
        static_cast<double>(std::max<size_t>(1, budget_pass.batch.batches));
    ProbePredictPath(env.model, traced.front().rows,
                     std::max<size_t>(1, static_cast<size_t>(mean_batch + 0.5)),
                     &report);
  }

  // Correctness checks, after all timing.
  const PassResult& first = passes.front();
  std::string lifecycle;
  bool stable = true;
  bool tally_stable = true;
  for (const std::vector<PassResult>* set : {&passes, &traced}) {
    for (size_t i = 0; i < set->size(); ++i) {
      const PassResult& pass = (*set)[i];
      const std::string error = LifecycleError(pass, total_points, workload);
      if (lifecycle.empty() && !error.empty()) {
        lifecycle = StrPrintf("%s pass %zu: ",
                              set == &traced ? "traced" : "timed", i) +
                    error;
      }
      stable = stable && pass.digest == first.digest;
      tally_stable =
          tally_stable && Tally(pass.training) == Tally(first.training);
    }
  }
  report.Check("lifecycle", lifecycle.empty(),
               lifecycle.empty()
                   ? StrPrintf("%zu requests per pass, all accounted",
                               first.submitted)
                   : lifecycle);
  // Traced passes are held to the same digest as the untraced ones.
  report.Check("digest_stable", stable,
               StrPrintf("%zu timed + %zu traced passes, close-order label "
                         "digest %016llx",
                         passes.size(), traced.size(),
                         static_cast<unsigned long long>(first.digest)));
  if (workload.config.ct.enabled) {
    report.Check("ct_tally_stable", tally_stable, Tally(first.training));
  }

  if (workload.name == "trips") {
    // Offline parity: the batch pipeline's dataset predicted through the
    // same serving model.
    const ml::Dataset& dataset = setup.dataset;
    std::vector<std::vector<double>> rows(dataset.num_samples());
    for (size_t r = 0; r < rows.size(); ++r) {
      const std::span<const double> row = dataset.features().Row(r);
      rows[r].assign(row.begin(), row.end());
    }
    const std::vector<serve::Prediction> offline =
        OrDie(env.model.PredictBatch(rows), "offline predict");
    size_t offline_correct = 0;
    for (size_t r = 0; r < offline.size(); ++r) {
      if (offline[r].label == dataset.labels()[r]) ++offline_correct;
    }
    report.Check("offline_parity",
                 first.evaluated == dataset.num_samples() &&
                     first.correct == offline_correct,
                 StrPrintf("online %zu segments, %zu correct; offline %zu "
                           "segments, %zu correct",
                           first.evaluated, first.correct,
                           dataset.num_samples(), offline_correct));
  }
  if (workload.name == "windowed" || workload.live) {
    size_t mismatches = first.rows.size() == first.submitted ? 0 : 1;
    for (size_t r = 0; r < first.rows.size() && r < first.row_labels.size();
         ++r) {
      const serve::Prediction one =
          OrDie(env.model.PredictOne(first.rows[r]), "predict one");
      if (one.label != first.row_labels[r]) ++mismatches;
    }
    report.Check("answers_match_predict_one", mismatches == 0,
                 StrPrintf("%zu answers recomputed, %zu mismatches",
                           first.rows.size(), mismatches));
  }
  if (workload.live) {
    const auto windowed =
        std::find_if(workloads.begin(), workloads.end(),
                     [](const Workload& w) { return w.name == "windowed"; });
    const uint64_t reference =
        RunReplayPass(env, *windowed, 0, false).digest;
    report.Check("live_matches_windowed", reference == first.digest,
                 StrPrintf("live %016llx vs windowed %016llx",
                           static_cast<unsigned long long>(first.digest),
                           static_cast<unsigned long long>(reference)));
  }

  report.Add("host.calib_ms_after", SpinMs(kCalibIterations), "ms");
  std::string pass_walls;
  for (const double wall : walls) {
    pass_walls += StrPrintf("%s%.6f", pass_walls.empty() ? "" : ",", wall);
  }
  const std::string header = StrPrintf(
      "\"workload\":\"%s\",\"seed\":%llu,\"users\":%d,\"days\":%d,"
      "\"points\":%zu,\"passes\":%zu,\"traced\":%s,\"digest\":\"%016llx\","
      "\"attempted\":%zu,\"failed\":%zu,\"pass_wall_s\":[%s],\n"
      "\"host\":{\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"hardware_concurrency\":%u,\"affinity_cpus\":%d,"
      "\"effective_cores\":%.3f}",
      workload.name.c_str(), static_cast<unsigned long long>(seed), users,
      days, total_points, passes.size(), traced_run ? "true" : "false",
      static_cast<unsigned long long>(first.digest), attempted, failed,
      pass_walls.c_str(), E2E_COMPILER, E2E_BUILD_TYPE,
      std::thread::hardware_concurrency(), cpus, effective_cores);
  if (!report.Write(out_path, header)) {
    std::fprintf(stderr, "trajkit_e2e: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return report.ok() ? 0 : 1;
}

}  // namespace
}  // namespace trajkit::e2e

int main(int argc, char** argv) { return trajkit::e2e::Main(argc, argv); }
