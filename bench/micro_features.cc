// Microbenchmarks (E5) for the feature pipeline — the paper's §3.2 claims
// the point-feature computation "was written in a vectorized manner ...
// faster than other online available versions"; these benchmarks measure
// the columnar kernels' throughput.

#include <benchmark/benchmark.h>

#include <algorithm>
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

// How many different inputs of `n` values a benchmark cycles through: at
// least 64, holding at least 32,768 values in all, so the branch predictor
// cannot learn their comparison outcomes. std::sort of 32 values cycling
// through 64 inputs runs about as fast as on one input, and 3-4x slower
// through 256 or more.
size_t CycledInputCount(size_t n) { return std::max<size_t>(64, 32768 / n); }

// The segment-close kernel: the 70 statistics over already-derived point
// features. Sizes: 32 (a windowed segment) and 584 (the mean trips segment;
// see BM_Percentiles). Iterations cycle through different walks.
void BM_ExtractFromPointFeatures(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<traj::PointFeatures> segments;
  for (uint64_t seed = 1; seed <= CycledInputCount(n); ++seed) {
    segments.push_back(traj::ComputePointFeatures(RandomWalkPoints(n, seed)));
  }
  const traj::TrajectoryFeatureExtractor extractor;
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        extractor.ExtractFromPointFeatures(segments[next]));
    next = (next + 1) % segments.size();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExtractFromPointFeatures)->Arg(32)->Arg(584);

// The six order statistics of one channel at segment close, with the
// scratch reused as in TrajectoryFeatureExtractor. Sizes: 32 (a windowed
// segment), 584 (the mean closed segment of the e2e trips workload at seed
// 7: 700,000 points in 1,198 segments) and 4861 (a long one). Iterations
// cycle through CycledInputCount different inputs.
void RunPercentiles(benchmark::State& state,
                    const std::vector<std::vector<double>>& inputs) {
  const std::vector<double> ps = {10.0, 25.0, 50.0, 75.0, 90.0};
  std::vector<double> scratch;
  std::vector<double> out(ps.size());
  size_t next = 0;
  for (auto _ : state) {
    stats::PercentilesInto(inputs[next], ps, scratch, out);
    benchmark::DoNotOptimize(out.data());
    next = (next + 1) % inputs.size();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// `draw` returns one value of an input.
template <typename Draw>
std::vector<std::vector<double>> PercentileInputs(benchmark::State& state,
                                                  Draw draw) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<double>> inputs(CycledInputCount(n),
                                          std::vector<double>(n));
  for (auto& values : inputs) {
    for (auto& v : values) v = draw();
  }
  return inputs;
}

void BM_Percentiles(benchmark::State& state) {
  Rng rng(5);
  RunPercentiles(state, PercentileInputs(state, [&rng] {
                   return rng.Gaussian(0.0, 10.0);
                 }));
}
BENCHMARK(BM_Percentiles)->Arg(32)->Arg(584)->Arg(4861);

// Duplicate-heavy: a stationary stretch fills speed and the rate channels
// with zeros and a few repeated values.
void BM_PercentilesDuplicates(benchmark::State& state) {
  Rng rng(5);
  RunPercentiles(state, PercentileInputs(state, [&rng] {
                   return rng.NextBounded(2) == 0
                              ? 0.0
                              : static_cast<double>(rng.NextBounded(4));
                 }));
}
BENCHMARK(BM_PercentilesDuplicates)->Arg(32)->Arg(584);

// Per-point cost of the serving path's feature work: SessionManager ingest
// of a 584-point segment (the leg step per fix) plus its close (the derive
// step and the 70 statistics). Each iteration opens and closes a session;
// the manager's close scratch is reused across iterations.
void BM_SessionIngest(benchmark::State& state) {
  const auto points = RandomWalkPoints(584);
  serve::SessionManager sessions;
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

// Per-point ingest of the `trips` shape: 60 users' 584-fix random walks,
// their start times staggered, fed in timestamp-merge order, so nearly
// every fix goes to another session than the one before it and the
// session lookup is on the measured path. Only the ingest is timed: the
// 60 closes at the end of each iteration (the derive step and the 70
// statistics, which BM_SessionIngest covers) run with the timer paused.
void BM_SessionIngestInterleaved(benchmark::State& state) {
  constexpr int kUsers = 60;
  struct Fix {
    int64_t user;
    traj::TrajectoryPoint point;
  };
  std::vector<Fix> stream;
  for (int user = 0; user < kUsers; ++user) {
    for (traj::TrajectoryPoint point :
         RandomWalkPoints(584, /*seed=*/100 + static_cast<uint64_t>(user))) {
      point.timestamp += 7.0 * user;
      stream.push_back({user, point});
    }
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const Fix& a, const Fix& b) {
                     return a.point.timestamp < b.point.timestamp;
                   });
  serve::SessionManager sessions;
  std::vector<serve::ClosedSegment> closed;
  for (auto _ : state) {
    for (const Fix& fix : stream) sessions.Ingest(fix.user, fix.point, &closed);
    state.PauseTiming();
    sessions.FlushAll(&closed);
    benchmark::DoNotOptimize(closed.back().features.data());
    closed.clear();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_SessionIngestInterleaved);

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
