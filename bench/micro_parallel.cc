// Microbenchmarks for the parallel execution layer: raw pool dispatch
// overhead and the thread-count scaling of the parallelized hot paths
// (forest fit/predict, cross-validation). Thread-count benchmarks take
// the count from Arg(); on a single-core host all counts collapse to the
// serial path, so run on a multi-core machine to observe scaling.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/harness_options.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "common/rng.h"
#include "core/experiments.h"
#include "ml/crossval.h"
#include "ml/dataset.h"
#include "ml/random_forest.h"

namespace trajkit {
namespace {

ml::Dataset SyntheticFeatures(size_t samples, size_t features, int classes,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  std::vector<int> groups;
  rows.reserve(samples);
  for (size_t i = 0; i < samples; ++i) {
    const int y = static_cast<int>(
        rng.NextBounded(static_cast<uint64_t>(classes)));
    std::vector<double> row(features);
    for (size_t f = 0; f < features; ++f) {
      row[f] = rng.Gaussian(0.0, 1.0);
    }
    row[0] += 1.5 * y;
    row[1] += 0.8 * (y % 2);
    row[2] -= 0.6 * y;
    rows.push_back(std::move(row));
    labels.push_back(y);
    groups.push_back(static_cast<int>(i % 16));
  }
  std::vector<std::string> class_names;
  for (int c = 0; c < classes; ++c) {
    class_names.push_back(std::string(1, 'c') + std::to_string(c));
  }
  return std::move(ml::Dataset::Create(ml::Matrix::FromRows(rows),
                                       std::move(labels), std::move(groups),
                                       {}, std::move(class_names)))
      .value();
}

/// RAII thread-count override so a benchmark cannot leak its setting into
/// the next one.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { SetMaxThreads(n); }
  ~ScopedThreads() { SetMaxThreads(0); }
};

// Dispatch overhead: near-empty bodies over a large index range. Measures
// the cost of chunk claiming + wakeup, not useful work.
void BM_ParallelForOverhead(benchmark::State& state) {
  ScopedThreads threads(static_cast<int>(state.range(0)));
  constexpr size_t kIndices = 1 << 14;
  std::vector<double> out(kIndices);
  for (auto _ : state) {
    const Status status = ParallelFor(0, kIndices, 256, [&](size_t i) {
      out[i] = static_cast<double>(i) * 0.5;
    });
    benchmark::DoNotOptimize(status.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kIndices));
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_RandomForestFitThreads(benchmark::State& state) {
  ScopedThreads threads(static_cast<int>(state.range(0)));
  const ml::Dataset ds = SyntheticFeatures(1024, 70, 5, 2);
  for (auto _ : state) {
    ml::RandomForestParams params;
    params.n_estimators = 50;
    ml::RandomForest forest(params);
    benchmark::DoNotOptimize(forest.Fit(ds));
  }
}
BENCHMARK(BM_RandomForestFitThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_RandomForestPredictThreads(benchmark::State& state) {
  ScopedThreads threads(static_cast<int>(state.range(0)));
  const ml::Dataset ds = SyntheticFeatures(4096, 70, 5, 3);
  ml::RandomForestParams params;
  params.n_estimators = 50;
  ml::RandomForest forest(params);
  (void)forest.Fit(ds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.Predict(ds.features()));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_RandomForestPredictThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CrossValidateThreads(benchmark::State& state) {
  ScopedThreads threads(static_cast<int>(state.range(0)));
  const ml::Dataset ds = SyntheticFeatures(1024, 70, 5, 4);
  ml::RandomForestParams params;
  params.n_estimators = 25;
  const ml::RandomForest forest(params);
  const auto folds =
      core::MakeFolds(core::CvScheme::kRandom, ds, 5, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::CrossValidate(forest, ds, folds));
  }
}
BENCHMARK(BM_CrossValidateThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace trajkit

// Expanded BENCHMARK_MAIN so the shared --threads/--timing_json/
// --metrics_json trio can be stripped before google-benchmark sees (and
// rejects) it: after the run the process metrics registry (pool
// chunk/invocation counters, idle seconds, forest fit/predict histograms)
// is dumped as JSON.
int main(int argc, char** argv) {
  const trajkit::HarnessOptions harness =
      trajkit::HarnessOptions::FromArgv(&argc, argv);
  harness.ApplyThreads();
  // The same host facts a TimingJson artifact carries, in the JSON
  // context (tools/check_bench.py reads them back as host_<key>).
  for (const auto& [key, value] : trajkit::bench::HostFacts()) {
    benchmark::AddCustomContext("host_" + key, value);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!trajkit::obs::WriteMetricsArtifacts(
          harness.MetricsArtifacts(),
          trajkit::obs::MetricsRegistry::Global())) {
    return 1;
  }
  return 0;
}
