// Microbenchmarks (E5) for the feature pipeline — the paper's §3.2 claims
// the point-feature computation "was written in a vectorized manner ...
// faster than other online available versions"; these benchmarks measure
// the columnar kernels' throughput.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/harness_options.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "geo/geodesy.h"
#include "serve/session_manager.h"
#include "stats/descriptive.h"
#include "synthgeo/generator.h"
#include "traj/point_features.h"
#include "traj/segmentation.h"
#include "traj/trajectory_features.h"

namespace trajkit {
namespace {

std::vector<traj::TrajectoryPoint> RandomWalkPoints(size_t n,
                                                    uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<traj::TrajectoryPoint> points;
  points.reserve(n);
  geo::LatLon pos{39.9, 116.4};
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    points.push_back({pos, t, traj::Mode::kWalk});
    pos = geo::Destination(pos, rng.Uniform(0.0, 360.0),
                           rng.Uniform(0.5, 5.0));
    t += rng.Uniform(1.0, 3.0);
  }
  return points;
}

void BM_Haversine(benchmark::State& state) {
  const geo::LatLon a{39.9042, 116.4074};
  const geo::LatLon b{39.9142, 116.4174};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::HaversineMeters(a, b));
  }
}
BENCHMARK(BM_Haversine);

void BM_InitialBearing(benchmark::State& state) {
  const geo::LatLon a{39.9042, 116.4074};
  const geo::LatLon b{39.9142, 116.4174};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::InitialBearingDeg(a, b));
  }
}
BENCHMARK(BM_InitialBearing);

void BM_PointFeatureKernels(benchmark::State& state) {
  const auto points = RandomWalkPoints(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(traj::ComputePointFeatures(points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PointFeatureKernels)->Range(64, 65536);

void BM_TrajectoryFeatureExtraction(benchmark::State& state) {
  traj::Segment segment;
  segment.mode = traj::Mode::kWalk;
  segment.points = RandomWalkPoints(static_cast<size_t>(state.range(0)));
  const traj::TrajectoryFeatureExtractor extractor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(segment));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrajectoryFeatureExtraction)->Range(64, 16384);

// The six order statistics of one channel at segment close, with the
// scratch reused as in TrajectoryFeatureExtractor. Sizes: 32 (a windowed
// segment), 584 (the mean closed segment of the e2e trips workload at seed
// 7: 700,000 points in 1,198 segments) and 4861 (a long one).
void RunPercentiles(benchmark::State& state,
                    const std::vector<double>& values) {
  const std::vector<double> ps = {10.0, 25.0, 50.0, 75.0, 90.0};
  std::vector<double> scratch;
  std::vector<double> out(ps.size());
  for (auto _ : state) {
    stats::PercentilesInto(values, ps, scratch, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}

void BM_Percentiles(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  for (auto& v : values) v = rng.Gaussian(0.0, 10.0);
  RunPercentiles(state, values);
}
BENCHMARK(BM_Percentiles)->Arg(32)->Arg(584)->Arg(4861);

// Duplicate-heavy: a stationary stretch fills speed and the rate channels
// with zeros and a few repeated values.
void BM_PercentilesDuplicates(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  for (auto& v : values) {
    v = rng.NextBounded(2) == 0 ? 0.0 : static_cast<double>(rng.NextBounded(4));
  }
  RunPercentiles(state, values);
}
BENCHMARK(BM_PercentilesDuplicates)->Arg(584);

// Per-point cost of the serving path's feature work: SessionManager ingest
// of a 584-point segment (the leg step per fix) plus its close (the derive
// step and the 70 statistics). Each iteration opens and closes a session;
// the manager's close scratch is reused across iterations.
void BM_SessionIngest(benchmark::State& state) {
  const auto points = RandomWalkPoints(584);
  serve::SessionOptions options;
  options.idle_after_seconds = 0.0;
  serve::SessionManager sessions(options);
  std::vector<serve::ClosedSegment> closed;
  for (auto _ : state) {
    for (const auto& point : points) sessions.Ingest(1, point, &closed);
    sessions.CloseSession(1, serve::CloseReason::kFlush, &closed);
    benchmark::DoNotOptimize(closed.back().features.data());
    closed.clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(points.size()));
}
BENCHMARK(BM_SessionIngest);

void BM_Segmentation(benchmark::State& state) {
  synthgeo::GeneratorOptions options;
  options.num_users = 4;
  options.days_per_user = 2;
  options.seed = 11;
  synthgeo::GeoLifeLikeGenerator generator(options);
  const auto corpus = generator.Generate();
  size_t total_points = 0;
  for (const auto& trajectory : corpus) {
    total_points += trajectory.points.size();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        traj::SegmentCorpus(corpus, traj::SegmentationOptions{}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(total_points));
}
BENCHMARK(BM_Segmentation);

void BM_CorpusGeneration(benchmark::State& state) {
  for (auto _ : state) {
    synthgeo::GeneratorOptions options;
    options.num_users = static_cast<int>(state.range(0));
    options.days_per_user = 1;
    options.seed = 13;
    synthgeo::GeoLifeLikeGenerator generator(options);
    benchmark::DoNotOptimize(generator.Generate());
  }
}
BENCHMARK(BM_CorpusGeneration)->Arg(1)->Arg(4);

}  // namespace
}  // namespace trajkit

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
  if (!trajkit::obs::WriteMetricsArtifacts(
          harness.MetricsArtifacts(),
          trajkit::obs::MetricsRegistry::Global())) {
    return 1;
  }
  return 0;
}
