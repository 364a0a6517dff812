// Tests for the sharded serving plane (src/serve/serving_plane.h): routing
// stability, byte-identical replay output across shard counts, the
// globally ascending cross-shard close order, per-shard metric mirroring,
// and the two races CI reruns under TSan — parallel ingest across shards
// and model hot swaps under sharded predict.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "serve/batch_predictor.h"
#include "serve/model_registry.h"
#include "serve/replay.h"
#include "serve/serving_plane.h"
#include "serve/session_manager.h"
#include "serve/statusz.h"
#include "synthgeo/generator.h"
#include "traj/types.h"

namespace trajkit::serve {
namespace {

// Same corpus/forest recipe as serve_test's ReplayFixture; built once per
// binary (forest training dominates runtime).
struct ShardFixture {
  std::vector<traj::Trajectory> corpus;
  core::LabelSet labels = core::LabelSet::Dabiri();
  ml::Dataset dataset;
  std::vector<int> offline_predictions;
  size_t offline_correct = 0;
  ServingModel model;

  static const ShardFixture& Get() {
    static const ShardFixture* fixture = new ShardFixture();
    return *fixture;
  }

 private:
  ShardFixture() {
    synthgeo::GeneratorOptions generator_options;
    generator_options.num_users = 4;
    generator_options.days_per_user = 2;
    generator_options.seed = 19;
    synthgeo::GeoLifeLikeGenerator generator(generator_options);
    corpus = generator.Generate();
    const core::Pipeline pipeline;
    dataset = std::move(pipeline.BuildDataset(corpus, labels)).value();
    ml::RandomForestParams params;
    params.n_estimators = 15;
    ml::RandomForest forest(params);
    TRAJKIT_CHECK(forest.Fit(dataset).ok());
    offline_predictions = forest.Predict(dataset.features());
    for (size_t i = 0; i < offline_predictions.size(); ++i) {
      if (offline_predictions[i] == dataset.labels()[i]) ++offline_correct;
    }
    model = std::move(MakeServingModel("v1", std::move(forest),
                                       traj::kNumTrajectoryFeatures))
                .value();
  }
};

// A plausible labelled walk for `user_id`: monotone timestamps, small
// steps, kWalk throughout (never split by mode/day inside the stream).
std::vector<traj::TrajectoryPoint> WalkPoints(int64_t user_id, size_t n,
                                              double start = 1.2e9) {
  Rng rng(static_cast<uint64_t>(user_id) * 7919u + 1);
  std::vector<traj::TrajectoryPoint> points;
  points.reserve(n);
  double t = start;
  double lat = 39.9 + 0.001 * static_cast<double>(user_id % 97);
  double lon = 116.3;
  for (size_t i = 0; i < n; ++i) {
    traj::TrajectoryPoint point;
    point.pos = {lat, lon};
    point.timestamp = t;
    point.mode = traj::Mode::kWalk;
    points.push_back(point);
    t += rng.Uniform(1.0, 20.0);
    lat += rng.Gaussian(0.0, 1e-4);
    lon += rng.Gaussian(0.0, 1e-4);
  }
  return points;
}

uint64_t CounterVal(std::string_view name) {
  const obs::Counter* counter =
      obs::MetricsRegistry::Global().FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

// --------------------------------------------------------------- Routing --

TEST(ShardRouterTest, SameUserAlwaysSameShardAndAllShardsReachable) {
  ModelRegistry registry;
  ServingPlaneOptions options;
  options.shards = 8;
  ServingPlane plane(&registry, options);
  ASSERT_EQ(plane.num_shards(), 8u);

  std::set<size_t> hit;
  for (int64_t user = 0; user < 4096; ++user) {
    const size_t shard = plane.ShardOf(user);
    ASSERT_LT(shard, 8u);
    // A resubmit / retry re-resolves the route; it must never move.
    EXPECT_EQ(plane.ShardOf(user), shard);
    EXPECT_EQ(plane.ShardOf(user), shard);
    hit.insert(shard);
  }
  // splitmix64 over 4096 consecutive ids must reach every shard.
  EXPECT_EQ(hit.size(), 8u);
}

TEST(ShardRouterTest, SingleShardRoutesEverythingToShardZero) {
  ModelRegistry registry;
  ServingPlane plane(&registry, ServingPlaneOptions{});
  ASSERT_EQ(plane.num_shards(), 1u);
  for (int64_t user = -5; user < 100; ++user) {
    EXPECT_EQ(plane.ShardOf(user), 0u);
  }
}

// ---------------------------------------------------- Replay determinism --

TEST(ShardReplayTest, OneShardMatchesOfflinePipeline) {
  const ShardFixture& fixture = ShardFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ServingPlane plane(&registry, ServingPlaneOptions{});
  const auto report = ReplayCorpus(fixture.corpus, fixture.labels, plane);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->segments_evaluated, fixture.dataset.num_samples());
  EXPECT_EQ(report->correct, fixture.offline_correct);
}

TEST(ShardReplayTest, ReplayIsByteIdenticalAcrossShardCounts) {
  const ShardFixture& fixture = ShardFixture::Get();

  struct Run {
    ReplayReport report;
    // Sink-observed close order: (session_id, start_time, reason).
    std::vector<std::tuple<int64_t, double, CloseReason>> closes;
  };
  const auto run = [&](size_t shards) {
    ModelRegistry registry;
    EXPECT_TRUE(registry.Publish(fixture.model).ok());
    ServingPlaneOptions options;
    options.shards = shards;
    ServingPlane plane(&registry, options);
    Run result;
    plane.set_closed_sink([&result](const ClosedSegment& segment) {
      result.closes.emplace_back(segment.session_id, segment.start_time,
                                 segment.reason);
    });
    auto report = ReplayCorpus(fixture.corpus, fixture.labels, plane);
    EXPECT_TRUE(report.ok());
    result.report = std::move(report).value();
    return result;
  };

  const Run one = run(1);
  ASSERT_GT(one.report.segments_evaluated, 0u);
  for (const size_t shards : {size_t{2}, size_t{8}}) {
    const Run sharded = run(shards);
    // The full scored stream, element for element, in close order.
    EXPECT_EQ(sharded.report.y_true, one.report.y_true) << shards;
    EXPECT_EQ(sharded.report.y_pred, one.report.y_pred) << shards;
    EXPECT_EQ(sharded.report.points, one.report.points) << shards;
    EXPECT_EQ(sharded.report.segments_closed, one.report.segments_closed);
    EXPECT_EQ(sharded.report.segments_evaluated,
              one.report.segments_evaluated);
    EXPECT_EQ(sharded.report.correct, one.report.correct) << shards;
    // Session-layer counters summed across shards match one manager.
    EXPECT_EQ(sharded.report.session_stats.points_ingested,
              one.report.session_stats.points_ingested);
    EXPECT_EQ(sharded.report.session_stats.segments_emitted,
              one.report.session_stats.segments_emitted);
    EXPECT_EQ(sharded.report.session_stats.segments_discarded_short,
              one.report.session_stats.segments_discarded_short);
    // The sink saw the exact same segments in the exact same order.
    EXPECT_EQ(sharded.closes, one.closes) << shards;
  }
}

// ------------------------------------------------- Cross-shard close order --

TEST(ShardCloseOrderTest, FlushAllClosesInGloballyAscendingSessionIdOrder) {
  ModelRegistry registry;
  ServingPlaneOptions options;
  options.shards = 4;
  options.session.min_points = 2;
  ServingPlane plane(&registry, options);

  std::vector<ClosedSegment> closed;
  // Ingest users in a scrambled order; shard assignment scatters them
  // further. FlushAll must still close 0, 1, 2, ... like one manager.
  for (const int64_t user : {11, 3, 7, 0, 14, 5, 9, 1, 12, 8}) {
    for (const auto& point : WalkPoints(user, 6)) {
      plane.Ingest(user, point, &closed);
    }
  }
  ASSERT_TRUE(closed.empty());
  EXPECT_EQ(plane.num_open_sessions(), 10u);

  plane.FlushAll(&closed);
  ASSERT_EQ(closed.size(), 10u);
  for (size_t i = 1; i < closed.size(); ++i) {
    EXPECT_LT(closed[i - 1].session_id, closed[i].session_id) << i;
  }
  EXPECT_EQ(plane.num_open_sessions(), 0u);
}

// -------------------------------------------------------- Metric mirrors --

TEST(ShardMetricsTest, PerShardCountersSumToAggregateDeltas) {
  const ShardFixture& fixture = ShardFixture::Get();
  constexpr size_t kShards = 4;
  // Other tests in this binary (and earlier planes with more shards) have
  // already bumped these process-wide counters: compare deltas, summing
  // the shard mirrors over a range wider than this plane.
  constexpr size_t kProbe = 16;
  const uint64_t points_before = CounterVal("serve.sessions.points_ingested");
  const uint64_t emitted_before =
      CounterVal("serve.sessions.segments_emitted");
  const uint64_t requests_before =
      CounterVal("serve.batch_predictor.requests");
  std::vector<uint64_t> shard_points_before(kProbe), shard_emitted_before(
                                                        kProbe),
      shard_requests_before(kProbe);
  for (size_t s = 0; s < kProbe; ++s) {
    const std::string prefix = "serve.shard" + std::to_string(s) + ".";
    shard_points_before[s] = CounterVal(prefix + "sessions.points_ingested");
    shard_emitted_before[s] =
        CounterVal(prefix + "sessions.segments_emitted");
    shard_requests_before[s] =
        CounterVal(prefix + "batch_predictor.requests");
  }

  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ServingPlaneOptions options;
  options.shards = kShards;
  ServingPlane plane(&registry, options);
  const auto report = ReplayCorpus(fixture.corpus, fixture.labels, plane);
  ASSERT_TRUE(report.ok());

  uint64_t shard_points = 0, shard_emitted = 0, shard_requests = 0;
  size_t shards_with_points = 0;
  for (size_t s = 0; s < kProbe; ++s) {
    const std::string prefix = "serve.shard" + std::to_string(s) + ".";
    const uint64_t delta = CounterVal(prefix + "sessions.points_ingested") -
                           shard_points_before[s];
    if (delta > 0) ++shards_with_points;
    if (s >= kShards) {
      EXPECT_EQ(delta, 0u) << "phantom shard " << s;
    }
    shard_points += delta;
    shard_emitted += CounterVal(prefix + "sessions.segments_emitted") -
                     shard_emitted_before[s];
    shard_requests += CounterVal(prefix + "batch_predictor.requests") -
                      shard_requests_before[s];
  }
  // The shard mirrors partition the aggregates exactly.
  EXPECT_EQ(shard_points,
            CounterVal("serve.sessions.points_ingested") - points_before);
  EXPECT_EQ(shard_emitted,
            CounterVal("serve.sessions.segments_emitted") - emitted_before);
  EXPECT_EQ(shard_requests,
            CounterVal("serve.batch_predictor.requests") - requests_before);
  EXPECT_EQ(shard_points, report->points);
  // 4 users over 4 shards: the fixture spreads across at least 2.
  EXPECT_GE(shards_with_points, 2u);
}

// The active-session gauges are written only when a session opens or
// closes, never per point; they must still equal the open-session counts
// after every single call — fresh users and the final flush included.
TEST(ShardMetricsTest, ActiveSessionGaugesTrackOpenSessionsAfterEveryCall) {
  ModelRegistry registry;
  ServingPlaneOptions options;
  options.shards = 4;
  ServingPlane plane(&registry, options);
  const auto gauge = [](const std::string& name) {
    const obs::Gauge* found = obs::MetricsRegistry::Global().FindGauge(name);
    return found == nullptr ? -1.0 : found->value();
  };
  // The gauges are process-wide: a shard no user has reached yet still
  // shows what an earlier plane in this binary left there.
  std::vector<bool> reached(plane.num_shards(), false);
  const auto expect_gauges_match = [&](const std::string& where) {
    EXPECT_EQ(gauge("serve.sessions.active"),
              static_cast<double>(plane.num_open_sessions()))
        << where;
    for (size_t s = 0; s < plane.num_shards(); ++s) {
      if (!reached[s]) continue;
      EXPECT_EQ(gauge("serve.shard" + std::to_string(s) + ".sessions.active"),
                static_cast<double>(plane.sessions(s).num_open_sessions()))
          << where << ", shard " << s;
    }
  };

  std::vector<ClosedSegment> closed;
  for (int64_t user = 0; user < 24; ++user) {
    reached[plane.ShardOf(user)] = true;
    for (const auto& point :
         WalkPoints(user, 6, 1.2e9 + 300.0 * static_cast<double>(user))) {
      plane.Ingest(user, point, &closed);
      expect_gauges_match("user " + std::to_string(user));
    }
  }
  EXPECT_EQ(std::count(reached.begin(), reached.end(), true),
            static_cast<ptrdiff_t>(plane.num_shards()));
  EXPECT_EQ(plane.num_open_sessions(), 24u);
  plane.FlushAll(&closed);
  EXPECT_EQ(plane.num_open_sessions(), 0u);
  expect_gauges_match("after FlushAll");
}

TEST(ShardMetricsTest, StatusPageRendersPerShardSection) {
  const ShardFixture& fixture = ShardFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ServingPlaneOptions options;
  options.shards = 2;
  ServingPlane plane(&registry, options);
  ASSERT_TRUE(
      ReplayCorpus(fixture.corpus, fixture.labels, plane).ok());
  const std::string page = RenderStatusPage(obs::MetricsRegistry::Global(),
                                            obs::RequestTracer::Global());
  EXPECT_NE(page.find("shards\n"), std::string::npos);
  EXPECT_NE(page.find("  shard 0: points="), std::string::npos);
  EXPECT_NE(page.find("  shard 1: points="), std::string::npos);
}

// ------------------------------------------------------------ Races (TSan) --

// One writer thread per shard ingests that shard's users concurrently —
// the shard-per-core contract says they never contend. Run under
// -DTRAJKIT_SANITIZE=thread via `ctest -L concurrency`; the assertions
// also pin that the parallel run produces exactly the serial segments.
TEST(ShardConcurrencyTest, ParallelIngestAcrossShardsMatchesSerial) {
  constexpr size_t kShards = 4;
  constexpr int64_t kUsers = 16;
  constexpr size_t kPointsPerUser = 40;

  ModelRegistry registry;
  ServingPlaneOptions options;
  options.shards = kShards;
  options.session.min_points = 2;

  std::vector<std::vector<traj::TrajectoryPoint>> streams;
  for (int64_t user = 0; user < kUsers; ++user) {
    streams.push_back(WalkPoints(user, kPointsPerUser));
  }

  // Key of one closed segment for cross-run comparison (features are
  // bit-identical when the per-user stream is identical).
  using Key = std::tuple<int64_t, double, size_t, std::vector<double>>;
  const auto keys = [](std::vector<ClosedSegment>& closed) {
    std::vector<Key> out;
    out.reserve(closed.size());
    for (ClosedSegment& segment : closed) {
      out.emplace_back(segment.session_id, segment.start_time,
                       segment.num_points, std::move(segment.features));
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  // Serial reference.
  std::vector<ClosedSegment> serial_closed;
  {
    ServingPlane plane(&registry, options);
    for (int64_t user = 0; user < kUsers; ++user) {
      for (const auto& point : streams[user]) {
        plane.Ingest(user, point, &serial_closed);
      }
    }
    plane.FlushAll(&serial_closed);
  }

  // Parallel: one writer per shard, each driving only its own users.
  ServingPlane plane(&registry, options);
  std::vector<std::vector<ClosedSegment>> per_thread(kShards);
  std::vector<std::thread> writers;
  for (size_t s = 0; s < kShards; ++s) {
    writers.emplace_back([&, s] {
      for (int64_t user = 0; user < kUsers; ++user) {
        if (plane.ShardOf(user) != s) continue;
        for (const auto& point : streams[user]) {
          plane.sessions(s).Ingest(user, point, &per_thread[s]);
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  std::vector<ClosedSegment> parallel_closed;
  for (auto& thread_closed : per_thread) {
    for (ClosedSegment& segment : thread_closed) {
      parallel_closed.push_back(std::move(segment));
    }
  }
  plane.FlushAll(&parallel_closed);

  EXPECT_EQ(keys(parallel_closed), keys(serial_closed));
}

// Hot swap under sharded predict: one writer flips the active model while
// readers submit across every shard. TSan-clean is the main assertion;
// labels must stay correct because v1 and v2 wrap the same forest.
TEST(ShardConcurrencyTest, HotSwapUnderShardedPredictStaysConsistent) {
  const ShardFixture& fixture = ShardFixture::Get();
  ModelRegistry registry;
  auto v2 = fixture.model;
  v2.version = "v2";
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ASSERT_TRUE(registry.Register(std::move(v2)).ok());

  ServingPlaneOptions options;
  options.shards = 4;
  options.batching.max_batch_size = 1;  // Dispatch immediately.
  ServingPlane plane(&registry, options);

  constexpr int kReaders = 3;
  constexpr int kIterationsPerReader = 50;
  std::atomic<int> readers_done{0};
  std::thread writer([&] {
    int i = 0;
    while (readers_done.load() < kReaders) {
      ASSERT_TRUE(registry.Publish(++i % 2 == 0 ? "v2" : "v1", serve::ModelRole::kActive).ok());
    }
  });

  const size_t num_rows = fixture.dataset.num_samples();
  std::vector<std::thread> readers;
  for (int reader = 0; reader < kReaders; ++reader) {
    readers.emplace_back([&, reader] {
      for (int i = 0; i < kIterationsPerReader; ++i) {
        const size_t r =
            (static_cast<size_t>(reader) * kIterationsPerReader +
             static_cast<size_t>(i)) %
            num_rows;
        const auto row = fixture.dataset.features().Row(r);
        // Spray across users (and therefore shards).
        auto future = plane.Submit(static_cast<int64_t>(i),
                                   PredictRequest({row.begin(), row.end()}));
        const auto result = future.get();
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.value().label, fixture.offline_predictions[r]);
        EXPECT_TRUE(result.value().model_version == "v1" ||
                    result.value().model_version == "v2");
      }
      readers_done.fetch_add(1);
    });
  }
  for (std::thread& reader : readers) reader.join();
  writer.join();
}

}  // namespace
}  // namespace trajkit::serve
