// Microbenchmarks for the ML substrate: tree/forest training and
// prediction throughput on trajectory-feature-shaped data (70 columns),
// plus the one-pass labels+probabilities kernel and the point feature
// kernels. With --timing_json=<path> a fixed gate workload runs
// after the google-benchmarks and emits the phase timings consumed by
// tools/check_bench.py (the micro_ml artifact in BENCH_baseline.json).

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"
#include "common/harness_options.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/random_forest.h"
#include "traj/point_features.h"
#include "traj/trajectory_features.h"

namespace trajkit::ml {
namespace {

Dataset SyntheticFeatures(size_t samples, size_t features, int classes,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  rows.reserve(samples);
  for (size_t i = 0; i < samples; ++i) {
    const int y = static_cast<int>(rng.NextBounded(
        static_cast<uint64_t>(classes)));
    std::vector<double> row(features);
    for (size_t f = 0; f < features; ++f) {
      row[f] = rng.Gaussian(0.0, 1.0);
    }
    // A handful of informative columns.
    row[0] += 1.5 * y;
    row[1] += 0.8 * (y % 2);
    row[2] -= 0.6 * y;
    rows.push_back(std::move(row));
    labels.push_back(y);
  }
  std::vector<std::string> class_names;
  for (int c = 0; c < classes; ++c) {
    class_names.push_back(std::string(1, 'c') + std::to_string(c));
  }
  return std::move(Dataset::Create(Matrix::FromRows(rows), std::move(labels),
                                   {}, {}, std::move(class_names)))
      .value();
}

void BM_DecisionTreeFit(benchmark::State& state) {
  const Dataset ds = SyntheticFeatures(
      static_cast<size_t>(state.range(0)), 70, 5, 1);
  for (auto _ : state) {
    DecisionTree tree;
    benchmark::DoNotOptimize(tree.Fit(ds));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecisionTreeFit)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RandomForestFit(benchmark::State& state) {
  const Dataset ds = SyntheticFeatures(1024, 70, 5, 2);
  for (auto _ : state) {
    RandomForestParams params;
    params.n_estimators = static_cast<int>(state.range(0));
    RandomForest forest(params);
    benchmark::DoNotOptimize(forest.Fit(ds));
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(10)->Arg(50);

// Fit compiles the flat form, so every forest predict runs the SoA pool
// and its cohort descent.
void BM_RandomForestPredict(benchmark::State& state) {
  const Dataset ds = SyntheticFeatures(2048, 70, 5, 3);
  RandomForestParams params;
  params.n_estimators = 50;
  RandomForest forest(params);
  (void)forest.Fit(ds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Predict(ds.features()));
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_RandomForestPredict);

// Single-row (serving-shaped) predicts.
void BM_ForestPredictSingleRow(benchmark::State& state) {
  const Dataset ds = SyntheticFeatures(1024, 70, 5, 3);
  RandomForestParams params;
  params.n_estimators = 50;
  RandomForest forest(params);
  (void)forest.Fit(ds);
  size_t r = 0;
  for (auto _ : state) {
    const std::span<const double> row = ds.features().Row(r);
    ml::Matrix one(1, row.size());
    std::copy(row.begin(), row.end(), one.MutableRow(0).begin());
    benchmark::DoNotOptimize(forest.Predict(one));
    r = (r + 1) % ds.num_samples();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForestPredictSingleRow);

// The serving predict: labels and probabilities for a batch of
// range(0) rows, Arg(1)=0 as the two separate calls (two descents per row
// and tree), Arg(1)=1 as the one-pass kernel (one descent feeding both
// accumulators). Batch sizes span the lone row of light online load to a
// full 64-row block.
void BM_FlatPredictWithProba(benchmark::State& state) {
  const Dataset ds = SyntheticFeatures(1024, 70, 5, 3);
  RandomForestParams params;
  params.n_estimators = 50;
  RandomForest forest(params);
  (void)forest.Fit(ds);
  const size_t rows = static_cast<size_t>(state.range(0));
  const bool one_pass = state.range(1) == 1;
  ml::Matrix batch(rows, ds.num_features());
  std::vector<int> labels;
  ml::Matrix probabilities;
  size_t next = 0;
  for (auto _ : state) {
    for (size_t r = 0; r < rows; ++r) {
      const std::span<const double> row = ds.features().Row(next);
      std::copy(row.begin(), row.end(), batch.MutableRow(r).begin());
      next = (next + 1) % ds.num_samples();
    }
    if (one_pass) {
      (void)forest.PredictWithProba(batch, &labels, &probabilities);
      benchmark::DoNotOptimize(labels.data());
      benchmark::DoNotOptimize(probabilities.data().data());
    } else {
      benchmark::DoNotOptimize(forest.Predict(batch));
      benchmark::DoNotOptimize(forest.PredictProba(batch));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlatPredictWithProba)
    ->ArgsProduct({{1, 8, 64}, {0, 1}});

void BM_GradientBoostingFit(benchmark::State& state) {
  const Dataset ds = SyntheticFeatures(1024, 70, 5, 4);
  for (auto _ : state) {
    GradientBoostingParams params;
    params.n_rounds = static_cast<int>(state.range(0));
    GradientBoosting gbdt(params);
    benchmark::DoNotOptimize(gbdt.Fit(ds));
  }
}
BENCHMARK(BM_GradientBoostingFit)->Arg(10)->Arg(30);

/// Fixed-size gate workload behind --timing_json: the paper's 50-tree
/// forest fit (its flat compile included), forest inference (batched and
/// single-row), the one-pass labels+probabilities kernel vs the two
/// separate calls, plus the point-feature kernels, as wall-clock phases
/// tools/check_bench.py tracks against BENCH_baseline.json.
/// The CI leg runs it with --threads=1 and a benchmark filter matching
/// nothing, so the phases are the entire measured work.
int RunTimingGate(const trajkit::HarnessOptions& harness) {
  using trajkit::Stopwatch;
  constexpr size_t kRows = 2048;
  // Ten reps keep each batched phase comfortably above scheduler noise.
  constexpr int kBatchReps = 10;

  const Dataset ds = SyntheticFeatures(kRows, 70, 5, 3);
  RandomForestParams params;
  params.n_estimators = 50;
  RandomForest forest(params);
  Stopwatch fit_watch;
  if (!forest.Fit(ds).ok()) return 1;
  const double fit_forest_s = fit_watch.ElapsedSeconds();

  // main() owns the metric-artifact dumps; this emitter only writes timings.
  trajkit::HarnessOptions timing_only = harness;
  timing_only.metrics_json.clear();
  timing_only.metrics_prom.clear();
  timing_only.timeseries_json.clear();
  trajkit::bench::TimingJson timing("micro_ml", timing_only);
  timing.Record("fit_forest_s", fit_forest_s);
  Stopwatch watch;
  for (int i = 0; i < kBatchReps; ++i) {
    benchmark::DoNotOptimize(forest.Predict(ds.features()));
  }
  timing.Record("predict_flat_batch_s",
                watch.ElapsedSeconds() / kBatchReps);

  ml::Matrix one(1, ds.num_features());
  watch.Reset();
  for (size_t r = 0; r < kRows; ++r) {
    const std::span<const double> row = ds.features().Row(r);
    std::copy(row.begin(), row.end(), one.MutableRow(0).begin());
    benchmark::DoNotOptimize(forest.Predict(one));
  }
  timing.RecordLap("predict_flat_single_s", watch);

  // The serving predict, labels plus probabilities, as the two separate
  // calls and as the one-pass kernel: the whole set in 64-row batches,
  // then row by row (the shape a lightly loaded predictor sees).
  std::vector<int> labels;
  ml::Matrix probabilities;
  for (int i = 0; i < kBatchReps; ++i) {
    benchmark::DoNotOptimize(forest.Predict(ds.features()));
    benchmark::DoNotOptimize(forest.PredictProba(ds.features()));
  }
  timing.Record("predict_proba_two_pass_batch_s",
                watch.ElapsedSeconds() / kBatchReps);
  watch.Reset();
  for (int i = 0; i < kBatchReps; ++i) {
    if (!forest.PredictWithProba(ds.features(), &labels, &probabilities).ok()) {
      return 1;
    }
    benchmark::DoNotOptimize(labels.data());
  }
  timing.Record("predict_proba_one_pass_batch_s",
                watch.ElapsedSeconds() / kBatchReps);
  watch.Reset();
  for (size_t r = 0; r < kRows; ++r) {
    const std::span<const double> row = ds.features().Row(r);
    std::copy(row.begin(), row.end(), one.MutableRow(0).begin());
    benchmark::DoNotOptimize(forest.Predict(one));
    benchmark::DoNotOptimize(forest.PredictProba(one));
  }
  timing.RecordLap("predict_proba_two_pass_single_s", watch);
  for (size_t r = 0; r < kRows; ++r) {
    const std::span<const double> row = ds.features().Row(r);
    std::copy(row.begin(), row.end(), one.MutableRow(0).begin());
    if (!forest.PredictWithProba(one, &labels, &probabilities).ok()) return 1;
    benchmark::DoNotOptimize(labels.data());
  }
  timing.RecordLap("predict_proba_one_pass_single_s", watch);

  // Point-feature kernels: 64 synthetic segments of 1024 fixes through the
  // full 70-feature extraction (columnar channel loops + shared-sort
  // percentiles).
  trajkit::Rng rng(11);
  std::vector<std::vector<trajkit::traj::TrajectoryPoint>> segments(64);
  for (auto& segment : segments) {
    double lat = 39.9, lon = 116.3, ts = 0.0;
    segment.resize(1024);
    for (auto& point : segment) {
      lat += rng.Gaussian(0.0, 1e-4);
      lon += rng.Gaussian(0.0, 1e-4);
      ts += 1.0 + rng.Uniform(0.0, 2.0);
      point.pos = {lat, lon};
      point.timestamp = ts;
    }
  }
  const trajkit::traj::TrajectoryFeatureExtractor extractor;
  watch.Reset();
  for (const auto& segment : segments) {
    const trajkit::traj::PointFeatures features =
        trajkit::traj::ComputePointFeatures(segment);
    benchmark::DoNotOptimize(extractor.ExtractFromPointFeatures(features));
  }
  timing.RecordLap("point_features_s", watch);
  return timing.Write() ? 0 : 1;
}

}  // namespace
}  // namespace trajkit::ml

// Expanded BENCHMARK_MAIN so the shared --threads/--timing_json/
// --metrics_json trio (common/harness_options.h) is accepted and stripped
// before google-benchmark sees (and rejects) it.
int main(int argc, char** argv) {
  const trajkit::HarnessOptions harness =
      trajkit::HarnessOptions::FromArgv(&argc, argv);
  harness.ApplyThreads();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!harness.timing_json.empty()) {
    const int gate = trajkit::ml::RunTimingGate(harness);
    if (gate != 0) return gate;
  }
  if (!trajkit::obs::WriteMetricsArtifacts(
          harness.MetricsArtifacts(),
          trajkit::obs::MetricsRegistry::Global())) {
    return 1;
  }
  return 0;
}
