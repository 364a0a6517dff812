// Tests for the online serving subsystem (src/serve): session feature
// parity, incremental segmentation parity, the micro-batching predictor,
// the model registry (including the hot-swap race, which must be
// TSan-clean), and the end-to-end replay-vs-offline guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/parallel.h"
#include "common/retry.h"
#include "common/rng.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "ml/random_forest.h"
#include "obs/request_trace.h"
#include "serve/batch_predictor.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/replay.h"
#include "serve/serving_plane.h"
#include "serve/session_manager.h"
#include "serve/statusz.h"
#include "stats/descriptive.h"
#include "synthgeo/generator.h"
#include "traj/point_features.h"
#include "traj/segmentation.h"
#include "traj/trajectory_features.h"
#include "traj/types.h"

namespace trajkit::serve {
namespace {

// Random walk around Beijing with adversarial timestamp deltas: duplicates
// (dt = 0) and sub-floor gaps exercise the min-duration clamp, stalls
// exercise zero-distance bearings.
std::vector<traj::TrajectoryPoint> RandomSegmentPoints(Rng& rng, size_t n) {
  std::vector<traj::TrajectoryPoint> points;
  points.reserve(n);
  double t = 1.2e9 + rng.Uniform(0.0, 1e6);
  double lat = 39.9 + rng.Gaussian(0.0, 0.05);
  double lon = 116.3 + rng.Gaussian(0.0, 0.05);
  for (size_t i = 0; i < n; ++i) {
    traj::TrajectoryPoint point;
    point.pos = {lat, lon};
    point.timestamp = t;
    point.mode = traj::Mode::kWalk;
    points.push_back(point);
    switch (rng.NextBounded(8)) {
      case 0:
        break;  // Duplicate timestamp.
      case 1:
        t += 0.01;  // Below the min-duration floor.
        break;
      default:
        t += rng.Uniform(0.2, 60.0);
    }
    if (rng.NextBounded(10) != 0) {  // 1-in-10: stationary fix.
      lat += rng.Gaussian(0.0, 1e-4);
      lon += rng.Gaussian(0.0, 1e-4);
    }
  }
  return points;
}

std::vector<double> BatchFeatures(
    const std::vector<traj::TrajectoryPoint>& points,
    const traj::PointFeatureOptions& options = {}) {
  traj::Segment segment;
  segment.points = points;
  const traj::TrajectoryFeatureExtractor extractor(options);
  auto features = extractor.Extract(segment);
  EXPECT_TRUE(features.ok());
  return std::move(features).value();
}

// A small trained forest over the synthetic corpus, plus everything the
// replay tests need. Built once (forest training dominates test runtime).
struct ReplayFixture {
  std::vector<traj::Trajectory> corpus;
  core::LabelSet labels = core::LabelSet::Dabiri();
  ml::Dataset dataset;
  std::vector<int> offline_predictions;
  size_t offline_correct = 0;
  ServingModel model;

  static const ReplayFixture& Get() {
    static const ReplayFixture* fixture = new ReplayFixture();
    return *fixture;
  }

 private:
  ReplayFixture() {
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

// -------------------------------------------------------- Session parity --

// Sessions that close only on a flush (or the max-window rule), so one
// ingested run of fixes is one segment.
SessionOptions ParityOptions(traj::PointFeatureOptions point_features = {}) {
  SessionOptions options;
  options.min_points = 2;
  options.split_on_day = false;
  options.split_on_mode = false;
  options.drop_unlabeled = false;
  options.idle_after_seconds = 0.0;
  options.point_features = point_features;
  return options;
}

// Ingests `points` as session `session_id` of `sessions` and closes it;
// returns the one closed segment's 70-vector.
std::vector<double> SessionFeatures(
    SessionManager& sessions, int64_t session_id,
    const std::vector<traj::TrajectoryPoint>& points) {
  std::vector<ClosedSegment> closed;
  for (const auto& point : points) sessions.Ingest(session_id, point, &closed);
  sessions.CloseSession(session_id, CloseReason::kFlush, &closed);
  EXPECT_EQ(closed.size(), 1u);
  if (closed.size() != 1) return {};
  EXPECT_EQ(closed[0].num_points, points.size());
  return closed[0].features;
}

// memcmp, not ==: the stationary runs make many zeros, whose sign must
// match too.
void ExpectBitIdentical(const std::vector<double>& online,
                        const std::vector<double>& offline) {
  ASSERT_EQ(online.size(), offline.size());
  EXPECT_EQ(std::memcmp(online.data(), offline.data(),
                        offline.size() * sizeof(double)),
            0);
}

TEST(SessionFeaturesTest, BitIdenticalToBatchOnRandomSegments) {
  Rng rng(42);
  // One manager across trials: its close scratch keeps the capacity of
  // earlier, longer segments.
  SessionManager sessions(ParityOptions());
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 2 + rng.NextBounded(120);
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n);
    const auto points = RandomSegmentPoints(rng, n);
    ExpectBitIdentical(SessionFeatures(sessions, trial, points),
                       BatchFeatures(points));
  }
}

TEST(SessionFeaturesTest, BitIdenticalWithUnwrappedBearings) {
  traj::PointFeatureOptions options;
  options.wrap_bearing_difference = false;
  SessionManager sessions(ParityOptions(options));
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto points = RandomSegmentPoints(rng, 2 + rng.NextBounded(60));
    ExpectBitIdentical(SessionFeatures(sessions, trial, points),
                       BatchFeatures(points, options));
  }
}

// Long segments with runs of repeated positions: every fix of a run
// repeats the previous one, so the bearing takes its a == b branch and the
// distance, speed and rate channels fill with zeros.
std::vector<traj::TrajectoryPoint> StationaryRunPoints(Rng& rng, size_t n) {
  std::vector<traj::TrajectoryPoint> points;
  points.reserve(n);
  double t = 1.2e9;
  double lat = 39.9 + rng.Gaussian(0.0, 0.05);
  double lon = 116.3 + rng.Gaussian(0.0, 0.05);
  size_t run = 0;
  for (size_t i = 0; i < n; ++i) {
    traj::TrajectoryPoint point;
    point.pos = {lat, lon};
    point.timestamp = t;
    point.mode = traj::Mode::kBus;
    points.push_back(point);
    t += rng.NextBounded(6) == 0 ? 0.0 : rng.Uniform(0.5, 10.0);
    if (run > 0) {
      --run;
    } else if (rng.NextBounded(3) == 0) {
      run = 1 + rng.NextBounded(60);
    } else {
      lat += rng.Gaussian(0.0, 2e-4);
      lon += rng.Gaussian(0.0, 2e-4);
    }
  }
  return points;
}

// The 70-vector computed with a full std::sort per channel: the feature
// definition the selection kernel must reproduce bit for bit.
std::vector<double> SortReferenceFeatures(const traj::PointFeatures& batch) {
  std::vector<double> out;
  for (int channel = 0; channel < traj::kNumFeatureChannels; ++channel) {
    const std::span<const double> values = traj::ChannelValues(batch, channel);
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    const auto percentile = [&sorted](double p) {
      const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
      const double lo_rank = std::floor(rank);
      const size_t lo = static_cast<size_t>(lo_rank);
      return sorted[lo] + (rank - lo_rank) * (sorted[lo + 1] - sorted[lo]);
    };
    out.push_back(stats::Min(values));
    out.push_back(stats::Max(values));
    out.push_back(stats::Mean(values));
    out.push_back(percentile(50.0));
    out.push_back(stats::StdDev(values));
    for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0}) {
      out.push_back(percentile(p));
    }
  }
  return out;
}

void ExpectSessionParity(const std::vector<traj::TrajectoryPoint>& points,
                         SessionManager& sessions, int64_t session_id) {
  SCOPED_TRACE(testing::Message() << "n=" << points.size());
  const std::vector<double> offline = BatchFeatures(points);
  ExpectBitIdentical(SessionFeatures(sessions, session_id, points), offline);
  ExpectBitIdentical(
      SortReferenceFeatures(traj::ComputePointFeatures(points)), offline);
}

TEST(SessionFeaturesTest, BitIdenticalOnLongAndStationarySegments) {
  Rng rng(61);
  // One manager across trials: nothing of a longer earlier segment may
  // leak into a shorter one through the reused close scratch.
  SessionManager sessions(ParityOptions());
  int64_t session_id = 0;
  for (const size_t n : {200u, 584u, 1000u, 4861u, 5000u, 300u}) {
    ExpectSessionParity(RandomSegmentPoints(rng, n), sessions, ++session_id);
    ExpectSessionParity(StationaryRunPoints(rng, n), sessions, ++session_id);
  }
  for (int trial = 0; trial < 20; ++trial) {
    ExpectSessionParity(StationaryRunPoints(rng, 2 + rng.NextBounded(400)),
                        sessions, ++session_id);
  }
  // A segment that never moves: every leg is a == b.
  std::vector<traj::TrajectoryPoint> still = StationaryRunPoints(rng, 300);
  for (auto& point : still) point.pos = still.front().pos;
  ExpectSessionParity(still, sessions, ++session_id);
}

TEST(SessionFeaturesTest, MaxWindowClosesMatchBatchOnSlices) {
  SessionOptions options = ParityOptions();
  options.max_segment_points = 32;
  SessionManager sessions(options);
  Rng rng(23);
  // One session throughout: each window reuses the session's leg columns,
  // and a window's first fix has no leg to the previous window's last.
  const auto points = RandomSegmentPoints(rng, 32 * 6 + 9);
  std::vector<ClosedSegment> closed;
  for (const auto& point : points) sessions.Ingest(3, point, &closed);
  sessions.FlushAll(&closed);
  ASSERT_EQ(closed.size(), 7u);
  for (size_t w = 0; w < closed.size(); ++w) {
    SCOPED_TRACE(testing::Message() << "window " << w);
    const size_t begin = 32 * w;
    const size_t end = std::min(begin + 32, points.size());
    EXPECT_EQ(closed[w].reason,
              w + 1 < closed.size() ? CloseReason::kMaxWindow
                                    : CloseReason::kFlush);
    EXPECT_EQ(closed[w].num_points, end - begin);
    ExpectBitIdentical(
        closed[w].features,
        BatchFeatures({points.begin() + begin, points.begin() + end}));
  }
}

TEST(SessionFeaturesTest, OnePointSegmentIsDiscarded) {
  SessionOptions options = ParityOptions();
  options.min_points = 1;  // Below the two fixes a feature vector needs.
  SessionManager sessions(options);
  Rng rng(5);
  std::vector<ClosedSegment> closed;
  sessions.Ingest(1, RandomSegmentPoints(rng, 1)[0], &closed);
  sessions.FlushAll(&closed);
  EXPECT_TRUE(closed.empty());
  EXPECT_EQ(sessions.stats().segments_discarded_short, 1u);
  // The manager still serves the next segment.
  const auto points = RandomSegmentPoints(rng, 30);
  ExpectBitIdentical(SessionFeatures(sessions, 2, points),
                     BatchFeatures(points));
}

// The closed-form fixtures of traj_test's PointFeaturesTest, fed through a
// session: each pins one quirk of the point-feature kernel in the closed
// segment's 70-vector.
double Feature(const std::vector<double>& features, int channel,
               traj::Statistic stat) {
  return features[static_cast<size_t>(
      traj::TrajectoryFeatureExtractor::IndexOf(channel, stat))];
}

constexpr int kSpeed = 1;
constexpr int kAcceleration = 2;
constexpr int kJerk = 3;
constexpr int kBearingRate = 5;

TEST(SessionFeaturesTest, FirstPointCopiesSecond) {
  // Legs of 5, 7, ..., 21 m every 2 s: speeds 2.5, 3.5, ..., 10.5 m/s, so
  // acceleration is 0.5 m/s² from the second leg on. Index 0 copies index
  // 1 in every channel, which the minima and means below see.
  std::vector<traj::TrajectoryPoint> points;
  geo::LatLon pos{39.9, 116.4};
  double t = 0.0;
  for (int i = 0; i < 10; ++i) {
    points.push_back({pos, t, traj::Mode::kCar});
    pos = geo::Destination(pos, 0.0, 5.0 + 2.0 * i);
    t += 2.0;
  }
  SessionManager sessions(ParityOptions());
  const std::vector<double> f = SessionFeatures(sessions, 1, points);
  ExpectBitIdentical(f, BatchFeatures(points));
  using traj::Statistic;
  EXPECT_NEAR(Feature(f, kSpeed, Statistic::kMin), 2.5, 1e-6);
  EXPECT_NEAR(Feature(f, kSpeed, Statistic::kMax), 10.5, 1e-6);
  EXPECT_NEAR(Feature(f, kSpeed, Statistic::kMean), (2.5 + 58.5) / 10.0, 1e-6);
  EXPECT_EQ(Feature(f, kAcceleration, Statistic::kMin), 0.0);
  EXPECT_NEAR(Feature(f, kAcceleration, Statistic::kMax), 0.5, 1e-6);
  EXPECT_NEAR(Feature(f, kAcceleration, Statistic::kMean), 0.4, 1e-6);
  // jerk: 0 at indices 0 and 1, 0.25 at index 2, then ~0.
  EXPECT_NEAR(Feature(f, kJerk, Statistic::kMax), 0.25, 1e-6);
  EXPECT_NEAR(Feature(f, kJerk, Statistic::kMean), 0.025, 1e-6);
}

TEST(SessionFeaturesTest, ZeroDurationClamped) {
  // 3 m every 2 s, but fix 2 repeats fix 1's timestamp: its Δt is clamped
  // to 0.1 s and the next leg takes 4 s, so speeds are 1.5, 1.5, 30, 0.75,
  // 1.5 m/s.
  std::vector<traj::TrajectoryPoint> points;
  geo::LatLon pos{39.9, 116.4};
  for (int i = 0; i < 5; ++i) {
    points.push_back({pos, 1000.0 + 2.0 * i, traj::Mode::kWalk});
    pos = geo::Destination(pos, 0.0, 3.0);
  }
  points[2].timestamp = points[1].timestamp;
  SessionManager sessions(ParityOptions());
  const std::vector<double> f = SessionFeatures(sessions, 1, points);
  ExpectBitIdentical(f, BatchFeatures(points));
  using traj::Statistic;
  EXPECT_NEAR(Feature(f, kSpeed, Statistic::kMax), 30.0, 1e-3);
  EXPECT_NEAR(Feature(f, kSpeed, Statistic::kMin), 0.75, 1e-6);
  EXPECT_NEAR(Feature(f, kSpeed, Statistic::kMean), 7.05, 1e-3);
  EXPECT_NEAR(Feature(f, kSpeed, Statistic::kMedian), 1.5, 1e-6);
}

TEST(SessionFeaturesTest, BearingRateWrapsAcrossNorth) {
  // Heading goes 350° → 10° in 1 s: the wrapped rate is +20°/s, the raw
  // difference -340°/s. Indices 0 and 1 read 0.
  std::vector<traj::TrajectoryPoint> points;
  geo::LatLon pos{39.9, 116.4};
  points.push_back({pos, 0.0, traj::Mode::kWalk});
  pos = geo::Destination(pos, 350.0, 10.0);
  points.push_back({pos, 1.0, traj::Mode::kWalk});
  pos = geo::Destination(pos, 10.0, 10.0);
  points.push_back({pos, 2.0, traj::Mode::kWalk});
  using traj::Statistic;

  SessionManager wrapped(ParityOptions());
  const std::vector<double> f = SessionFeatures(wrapped, 1, points);
  ExpectBitIdentical(f, BatchFeatures(points));
  EXPECT_NEAR(Feature(f, kBearingRate, Statistic::kMax), 20.0, 0.5);
  EXPECT_EQ(Feature(f, kBearingRate, Statistic::kMin), 0.0);

  traj::PointFeatureOptions raw_options;
  raw_options.wrap_bearing_difference = false;
  SessionManager raw(ParityOptions(raw_options));
  const std::vector<double> g = SessionFeatures(raw, 1, points);
  ExpectBitIdentical(g, BatchFeatures(points, raw_options));
  EXPECT_NEAR(Feature(g, kBearingRate, Statistic::kMin), -340.0, 0.5);
  EXPECT_EQ(Feature(g, kBearingRate, Statistic::kMax), 0.0);
}

// -------------------------------------------------- Segmentation parity --

// Builds a trajectory that hits every offline split rule: mode changes,
// a day boundary, a long gap, and out-of-order fixes.
traj::Trajectory AdversarialTrajectory(uint64_t seed) {
  Rng rng(seed);
  traj::Trajectory trajectory;
  trajectory.user_id = 17;
  double t = 1.2e9;
  double lat = 39.9, lon = 116.3;
  const traj::Mode modes[] = {traj::Mode::kWalk, traj::Mode::kBus,
                              traj::Mode::kUnknown, traj::Mode::kBike};
  for (int block = 0; block < 12; ++block) {
    const traj::Mode mode = modes[rng.NextBounded(4)];
    const size_t n = 2 + rng.NextBounded(30);
    for (size_t i = 0; i < n; ++i) {
      traj::TrajectoryPoint point;
      point.pos = {lat, lon};
      point.timestamp = t;
      point.mode = mode;
      trajectory.points.push_back(point);
      t += rng.Uniform(1.0, 90.0);
      lat += rng.Gaussian(0.0, 1e-4);
      lon += rng.Gaussian(0.0, 1e-4);
      if (rng.NextBounded(15) == 0) {
        // Out-of-order fix: jump back in time.
        traj::TrajectoryPoint stale = point;
        stale.timestamp = point.timestamp - rng.Uniform(10.0, 1000.0);
        trajectory.points.push_back(stale);
      }
    }
    if (rng.NextBounded(3) == 0) t += 7200.0;   // Long gap.
    if (rng.NextBounded(4) == 0) t += 86400.0;  // Day boundary.
  }
  return trajectory;
}

void ExpectSessionMatchesOffline(const traj::Trajectory& trajectory,
                                 double max_gap_seconds) {
  traj::SegmentationOptions offline_options;
  offline_options.max_gap_seconds = max_gap_seconds;
  const std::vector<traj::Segment> offline =
      traj::SegmentTrajectory(trajectory, offline_options);

  SessionOptions session_options;
  session_options.max_gap_seconds = max_gap_seconds;
  session_options.idle_after_seconds = 0.0;  // Parity mode: no eviction.
  SessionManager sessions(session_options);
  std::vector<ClosedSegment> closed;
  for (const auto& point : trajectory.points) {
    sessions.Ingest(trajectory.user_id, point, &closed);
  }
  sessions.FlushAll(&closed);

  ASSERT_EQ(closed.size(), offline.size());
  const traj::TrajectoryFeatureExtractor extractor;
  for (size_t s = 0; s < closed.size(); ++s) {
    EXPECT_EQ(closed[s].mode, offline[s].mode);
    EXPECT_EQ(closed[s].day, offline[s].day);
    ASSERT_EQ(closed[s].num_points, offline[s].points.size());
    EXPECT_EQ(closed[s].start_time, offline[s].points.front().timestamp);
    EXPECT_EQ(closed[s].end_time, offline[s].points.back().timestamp);
    // Feature vectors bit-identical to the offline extractor's.
    ExpectBitIdentical(closed[s].features,
                       std::move(extractor.Extract(offline[s])).value());
  }
}

TEST(SessionManagerTest, SegmentationParityVsOffline) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    ExpectSessionMatchesOffline(AdversarialTrajectory(seed),
                                /*max_gap_seconds=*/0.0);
  }
}

TEST(SessionManagerTest, SegmentationParityWithGapRule) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    ExpectSessionMatchesOffline(AdversarialTrajectory(seed),
                                /*max_gap_seconds=*/1800.0);
  }
}

TEST(SessionManagerTest, CorpusParityVsOffline) {
  synthgeo::GeneratorOptions options;
  options.num_users = 3;
  options.days_per_user = 2;
  options.seed = 77;
  synthgeo::GeoLifeLikeGenerator generator(options);
  const auto corpus = generator.Generate();
  for (const traj::Trajectory& trajectory : corpus) {
    ExpectSessionMatchesOffline(trajectory, 0.0);
  }
}

TEST(SessionManagerTest, OutOfOrderFixesDroppedAcrossSegmentBoundary) {
  SessionOptions options;
  options.min_points = 2;
  SessionManager sessions(options);
  std::vector<ClosedSegment> closed;
  Rng rng(11);
  auto points = RandomSegmentPoints(rng, 12);
  for (const auto& point : points) sessions.Ingest(1, point, &closed);
  // A mode change closes the first segment but keeps the session state.
  traj::TrajectoryPoint next = points.back();
  next.timestamp += 5.0;
  next.mode = traj::Mode::kBus;
  sessions.Ingest(1, next, &closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].reason, CloseReason::kModeChange);
  // A fix older than the last kept one is dropped even though that fix's
  // segment is already closed: the cleaning reference persists, exactly
  // like the offline segmenter's.
  traj::TrajectoryPoint stale = next;
  stale.timestamp -= 500.0;
  sessions.Ingest(1, stale, &closed);
  EXPECT_EQ(sessions.stats().points_dropped_out_of_order, 1u);
  ASSERT_EQ(closed.size(), 1u);
  // Only `next` sits in the open segment; too short to emit.
  std::vector<ClosedSegment> rest;
  sessions.FlushAll(&rest);
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(sessions.stats().segments_discarded_short, 1u);
}

TEST(SessionManagerTest, MaxWindowClosesOpenSegment) {
  SessionOptions options;
  options.min_points = 2;
  options.max_segment_points = 10;
  SessionManager sessions(options);
  std::vector<ClosedSegment> closed;
  Rng rng(13);
  const auto points = RandomSegmentPoints(rng, 25);
  for (const auto& point : points) sessions.Ingest(1, point, &closed);
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(closed[0].reason, CloseReason::kMaxWindow);
  EXPECT_EQ(closed[0].num_points, 10u);
  EXPECT_EQ(closed[1].num_points, 10u);
  sessions.FlushAll(&closed);
  ASSERT_EQ(closed.size(), 3u);
  EXPECT_EQ(closed[2].reason, CloseReason::kFlush);
  EXPECT_EQ(closed[2].num_points, 5u);
}

TEST(SessionManagerTest, IdleSessionsEvicted) {
  SessionOptions options;
  options.min_points = 2;
  options.idle_after_seconds = 600.0;
  SessionManager sessions(options);
  std::vector<ClosedSegment> closed;
  Rng rng(17);
  const auto a = RandomSegmentPoints(rng, 15);
  for (const auto& point : a) sessions.Ingest(1, point, &closed);
  const double now = a.back().timestamp;
  traj::TrajectoryPoint fresh = a.back();
  fresh.timestamp = now;
  sessions.Ingest(2, fresh, &closed);
  EXPECT_EQ(sessions.num_open_sessions(), 2u);

  sessions.EvictIdle(now + 300.0, &closed);  // Nobody idle yet.
  EXPECT_EQ(sessions.num_open_sessions(), 2u);
  ASSERT_TRUE(closed.empty());

  sessions.EvictIdle(now + 601.0, &closed);  // Both sessions idle now.
  EXPECT_EQ(sessions.num_open_sessions(), 0u);
  EXPECT_EQ(sessions.stats().sessions_evicted_idle, 2u);
  // Session 1 had enough points to emit; session 2 (one point) discarded.
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].session_id, 1);
  EXPECT_EQ(closed[0].reason, CloseReason::kIdle);
  EXPECT_EQ(sessions.stats().segments_discarded_short, 1u);
}

TEST(SessionManagerTest, SessionCapEvictsLeastRecentlyUpdated) {
  SessionOptions options;
  options.min_points = 2;
  options.max_sessions = 2;
  SessionManager sessions(options);
  std::vector<ClosedSegment> closed;
  Rng rng(23);
  const auto points = RandomSegmentPoints(rng, 6);
  for (const auto& point : points) sessions.Ingest(1, point, &closed);
  for (const auto& point : points) sessions.Ingest(2, point, &closed);
  EXPECT_EQ(sessions.num_open_sessions(), 2u);
  // Touch 1 so 2 becomes the LRU victim.
  sessions.Ingest(1, points.back(), &closed);
  ASSERT_TRUE(closed.empty());
  sessions.Ingest(3, points.front(), &closed);
  EXPECT_EQ(sessions.num_open_sessions(), 2u);
  EXPECT_EQ(sessions.stats().sessions_evicted_cap, 1u);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].session_id, 2);
  EXPECT_EQ(closed[0].reason, CloseReason::kSessionCap);
}

// ----------------------------------------------------------- Registry --

TEST(ModelRegistryTest, ValidatesModels) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Acquire().active, nullptr);

  ServingModel unfitted;
  unfitted.version = "bad";
  EXPECT_FALSE(registry.Register(std::move(unfitted)).ok());

  const ReplayFixture& fixture = ReplayFixture::Get();
  // Subset indices out of range / duplicated.
  auto bad_subset = fixture.model;
  bad_subset.version = "bad-subset";
  bad_subset.feature_subset = {0, 99};
  EXPECT_FALSE(bad_subset.Validate().ok());
  bad_subset.feature_subset = {3, 3};
  EXPECT_FALSE(bad_subset.Validate().ok());
  // Subset width must match what the forest was trained on.
  bad_subset.feature_subset = {0, 1, 2};
  EXPECT_FALSE(bad_subset.Validate().ok());
  // Normalizer width mismatch.
  auto bad_norm = fixture.model;
  bad_norm.version = "bad-norm";
  bad_norm.norm_mins = {0.0};
  bad_norm.norm_maxs = {1.0};
  EXPECT_FALSE(bad_norm.Validate().ok());

  ASSERT_TRUE(registry.Register(fixture.model).ok());
  // Duplicate version rejected.
  EXPECT_FALSE(registry.Register(fixture.model).ok());
  EXPECT_FALSE(registry.Publish("no-such-version", serve::ModelRole::kActive).ok());
  ASSERT_TRUE(registry.Publish("v1", serve::ModelRole::kActive).ok());
  ASSERT_NE(registry.Acquire().active, nullptr);
  EXPECT_EQ(registry.Acquire().active->version, "v1");
  EXPECT_EQ(registry.Versions(), std::vector<std::string>{"v1"});
  EXPECT_NE(registry.Get("v1"), nullptr);
  EXPECT_EQ(registry.Get("v2"), nullptr);
}

TEST(ModelRegistryTest, NormalizationMatchesMinMaxScaler) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  // A model whose normalizer is identity on [0, 1) plus one constant
  // column: constant columns must map to 0 like MinMaxScaler::Transform.
  auto model = fixture.model;
  model.version = "normed";
  const size_t width = static_cast<size_t>(model.num_input_features);
  model.norm_mins.assign(width, 0.0);
  model.norm_maxs.assign(width, 1.0);
  model.norm_mins[3] = 5.0;  // Constant column: range 0.
  model.norm_maxs[3] = 5.0;
  ASSERT_TRUE(model.Validate().ok());
  std::vector<std::vector<double>> rows(1, std::vector<double>(width, 2.0));
  const auto prepared = model.PrepareBatch(rows);
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->At(0, 0), 2.0);  // (2-0)*1/(1-0).
  EXPECT_EQ(prepared->At(0, 3), 0.0);  // Constant column.
}

// ------------------------------------------------------ Batch predictor --

std::vector<double> FixtureRow(size_t r) {
  const auto row = ReplayFixture::Get().dataset.features().Row(r);
  return {row.begin(), row.end()};
}

// Parks a predictor's worker behind one blocker batch. Dispatch is
// work-conserving, so an idle worker takes a request the moment it is
// queued; to make requests queue, the first batch the worker takes draws
// an injected batch delay (batch_delay:p=1) and holds the worker for
// kHoldMs. Once the batch_delay counter shows the draw, the injector is
// switched off, so every later batch (the worker's or Flush's) runs
// clean. Declare it before the predictor: the injector must outlive it.
class ParkedWorker {
 public:
  static constexpr double kHoldMs = 200.0;

  ParkedWorker() : injector_(HoldSpec()) {}

  /// Wires the blocker's injector; max_batch_size is large enough that
  /// everything queued behind the blocker leaves as one batch.
  BatchPredictorOptions Options() {
    BatchPredictorOptions options;
    options.max_batch_size = 1000;
    options.fault_injector = &injector_;
    return options;
  }

  /// Submits the blocker and returns once the worker is holding it.
  void Park(BatchPredictor& predictor) {
    const obs::Counter& injected = obs::MetricsRegistry::Global().GetCounter(
        "serve.faults.injected.batch_delay");
    const uint64_t before = injected.value();
    blocker_ = predictor.Submit(PredictRequest(FixtureRow(0)));
    while (injected.value() == before) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    injector_.set_enabled(false);
  }

  /// The blocker's own answer, served once the hold ends.
  Result<Prediction> BlockerResult() { return blocker_.get(); }

 private:
  static FaultSpec HoldSpec() {
    FaultSpec spec;
    spec.batch_delay_p = 1.0;
    spec.batch_delay_latency_ms = kHoldMs;
    return spec;
  }

  FaultInjector injector_;
  std::future<Result<Prediction>> blocker_;
};

TEST(BatchPredictorTest, NoActiveModelFailsCleanly) {
  ModelRegistry registry;
  BatchPredictor predictor(&registry);
  auto future = predictor.Submit(PredictRequest(
      std::vector<double>(traj::kNumTrajectoryFeatures, 0.0)));
  const auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BatchPredictorTest, DeterministicAcrossBatchCompositions) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());

  std::vector<std::vector<double>> requests;
  for (size_t r = 0; r < fixture.dataset.num_samples(); ++r) {
    const auto row = fixture.dataset.features().Row(r);
    requests.emplace_back(row.begin(), row.end());
  }

  const auto run = [&](size_t max_batch) {
    BatchPredictorOptions options;
    options.max_batch_size = max_batch;
    BatchPredictor predictor(&registry, options);
    std::vector<std::future<Result<Prediction>>> futures;
    for (const auto& request : requests) {
      futures.push_back(predictor.Submit(PredictRequest(request)));
    }
    std::vector<Prediction> predictions;
    for (auto& future : futures) {
      auto result = future.get();
      EXPECT_TRUE(result.ok());
      predictions.push_back(std::move(result).value());
    }
    return predictions;
  };

  const auto singles = run(1);
  const auto batched = run(64);
  const auto odd = run(7);
  ASSERT_EQ(singles.size(), batched.size());
  for (size_t i = 0; i < singles.size(); ++i) {
    // Per-request determinism: identical answers whatever the batch
    // composition, and identical to the offline forest.
    EXPECT_EQ(singles[i].label, batched[i].label);
    EXPECT_EQ(singles[i].label, odd[i].label);
    EXPECT_EQ(singles[i].label, fixture.offline_predictions[i]);
    EXPECT_EQ(singles[i].probabilities, batched[i].probabilities);
    EXPECT_EQ(singles[i].model_version, "v1");
    EXPECT_GT(singles[i].latency_seconds, 0.0);
  }
}

TEST(BatchPredictorTest, FreedWorkerDispatchesPartialBatch) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ParkedWorker parked;
  // max_batch_size 1000 is never reached: the lone request behind the
  // blocker leaves as soon as the worker is free, with no timer to wait
  // out.
  BatchPredictor predictor(&registry, parked.Options());
  parked.Park(predictor);
  auto future = predictor.Submit(PredictRequest(FixtureRow(0)));
  const auto result = future.get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().label, fixture.offline_predictions[0]);
  EXPECT_EQ(predictor.counters().batches, 2u);  // The blocker, then it.
  EXPECT_EQ(predictor.counters().max_batch, 1u);
}

TEST(BatchPredictorTest, RequestsQueuedBehindABusyWorkerLeaveAsOneBatch) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ParkedWorker parked;
  BatchPredictor predictor(&registry, parked.Options());
  parked.Park(predictor);
  constexpr size_t kQueued = 12;
  std::vector<std::future<Result<Prediction>>> futures;
  for (size_t r = 0; r < kQueued; ++r) {
    futures.push_back(predictor.Submit(PredictRequest(FixtureRow(r))));
  }
  for (size_t r = 0; r < kQueued; ++r) {
    const auto result = futures[r].get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().label, fixture.offline_predictions[r]);
  }
  ASSERT_TRUE(parked.BlockerResult().ok());
  // Work-conserving dispatch: the blocker's batch, then everything that
  // queued while it ran.
  const BatchPredictor::Counters counters = predictor.counters();
  EXPECT_EQ(counters.batches, 2u);
  EXPECT_EQ(counters.max_batch, kQueued);
}

TEST(BatchPredictorTest, BadRequestFailsOnlyItself) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ParkedWorker parked;
  BatchPredictorOptions options = parked.Options();
  options.max_batch_size = 2;  // Both requests land in one batch.
  BatchPredictor predictor(&registry, options);
  parked.Park(predictor);
  auto bad = predictor.Submit(PredictRequest(std::vector<double>(5, 0.0)));
  const auto row = fixture.dataset.features().Row(0);
  auto good = predictor.Submit(PredictRequest({row.begin(), row.end()}));
  const auto bad_result = bad.get();
  ASSERT_FALSE(bad_result.ok());
  EXPECT_EQ(bad_result.status().code(), StatusCode::kInvalidArgument);
  const auto good_result = good.get();
  ASSERT_TRUE(good_result.ok());
  EXPECT_EQ(good_result.value().label, fixture.offline_predictions[0]);
}

TEST(BatchPredictorTest, FlushProcessesPendingOnCallerThread) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ParkedWorker parked;  // The worker is busy: only Flush can serve these.
  BatchPredictor predictor(&registry, parked.Options());
  parked.Park(predictor);
  std::vector<std::future<Result<Prediction>>> futures;
  for (size_t r = 0; r < 5; ++r) {
    const auto row = fixture.dataset.features().Row(r);
    futures.push_back(
        predictor.Submit(PredictRequest({row.begin(), row.end()})));
  }
  predictor.Flush();
  for (size_t r = 0; r < futures.size(); ++r) {
    const auto result = futures[r].get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().label, fixture.offline_predictions[r]);
  }
}

// The hot-swap race: one writer flips the active model while readers
// predict. Run under -DTRAJKIT_SANITIZE=thread (tools/run_ci.sh); the
// assertions also verify each reader saw one consistent snapshot.
TEST(ModelRegistryTest, HotSwapRaceKeepsSnapshotsConsistent) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  auto v2 = fixture.model;
  v2.version = "v2";
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ASSERT_TRUE(registry.Register(std::move(v2)).ok());

  constexpr int kReaders = 3;
  constexpr int kIterationsPerReader = 100;
  std::atomic<int> readers_done{0};
  // The writer keeps flipping the active model until every reader has
  // finished its iterations, so swaps genuinely overlap the reads.
  std::thread writer([&] {
    int i = 0;
    while (readers_done.load() < kReaders) {
      ASSERT_TRUE(registry.Publish(++i % 2 == 0 ? "v2" : "v1", serve::ModelRole::kActive).ok());
    }
  });

  const auto row = fixture.dataset.features().Row(0);
  const std::vector<double> request(row.begin(), row.end());
  std::vector<std::thread> readers;
  std::atomic<int> predictions{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < kIterationsPerReader; ++i) {
        const std::shared_ptr<const ServingModel> snapshot =
            registry.Acquire().active;
        ASSERT_NE(snapshot, nullptr);
        // The snapshot is an immutable, internally-consistent triple no
        // matter how many swaps happen while we hold it.
        ASSERT_TRUE(snapshot->version == "v1" || snapshot->version == "v2");
        auto prediction = snapshot->PredictOne(request);
        ASSERT_TRUE(prediction.ok());
        EXPECT_EQ(prediction->label, fixture.offline_predictions[0]);
        EXPECT_EQ(prediction->model_version, snapshot->version);
        predictions.fetch_add(1);
      }
      readers_done.fetch_add(1);
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(predictions.load(), kReaders * kIterationsPerReader);
}

// ----------------------------------------------------- Fig. 3 subset --

// Lost-wakeup stress for the idle-only notify: producers submit single
// requests with random gaps — some back to back, some long enough for the
// worker to drain the queue and go idle — so submits race the worker's
// step into and out of its wait. A lost wakeup strands a request in the
// queue; every future must be ready within 5 s. Run under
// -DTRAJKIT_SANITIZE=thread (tools/run_ci.sh).
TEST(BatchPredictorTest, ConcurrentSubmitsNeverStrandARequest) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  BatchPredictor predictor(&registry);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  struct Submitted {
    size_t row;
    std::future<Result<Prediction>> future;
  };
  std::vector<std::vector<Submitted>> submitted(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(100 + static_cast<uint64_t>(p));
      for (int i = 0; i < kPerProducer; ++i) {
        const size_t row = rng.NextBounded(fixture.dataset.num_samples());
        submitted[p].push_back(
            {row, predictor.Submit(PredictRequest(FixtureRow(row)))});
        if (rng.NextBounded(4) == 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(rng.NextBounded(300)));
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (std::vector<Submitted>& mine : submitted) {
    for (Submitted& request : mine) {
      ASSERT_EQ(request.future.wait_until(deadline),
                std::future_status::ready)
          << "request stranded in the queue";
      const auto result = request.future.get();
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result.value().label,
                fixture.offline_predictions[request.row]);
    }
  }
  EXPECT_EQ(predictor.counters().requests,
            static_cast<size_t>(kProducers * kPerProducer));
}

// A Submit that wakes the idle worker can have its request taken by a
// Flush on the submitting thread before the worker runs: the worker then
// wakes to an empty queue. It must go back to sleep re-armed, so that the
// next Submit still wakes it; that request is answered with no Flush.
TEST(BatchPredictorTest, FlushBetweenWakeupAndWorkerKeepsWorkerWakeable) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  BatchPredictor predictor(&registry);

  for (int round = 0; round < 50; ++round) {
    // Let the worker finish the last batch and sleep on the empty queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto flushed = predictor.Submit(PredictRequest(FixtureRow(0)));
    predictor.Flush();
    auto next = predictor.Submit(PredictRequest(FixtureRow(1)));
    ASSERT_EQ(next.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "worker never woke for the request after a Flush (round "
        << round << ")";
    ASSERT_TRUE(flushed.get().ok());
    const auto result = next.get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().label, fixture.offline_predictions[1]);
  }
}

TEST(FeatureSubsetTest, LoadsTopKFromFig3Csv) {
  const std::string path = testing::TempDir() + "/serve_test/fig3.csv";
  ASSERT_TRUE(WriteStringToFile(
                  path,
                  "method,k,feature,cv_accuracy\n"
                  "importance,1,speed_p90,0.61\n"
                  "importance,2,distance_max,0.67\n"
                  "importance,3,speed_mean,0.70\n"
                  "wrapper,1,jerk_min,0.55\n")
                  .ok());
  const auto subset = LoadFig3FeatureSubset(path, "importance", 2);
  ASSERT_TRUE(subset.ok()) << subset.status().ToString();
  ASSERT_EQ(subset->size(), 2u);
  EXPECT_EQ((*subset)[0],
            traj::TrajectoryFeatureExtractor::FeatureIndex("speed_p90")
                .value());
  EXPECT_EQ((*subset)[1],
            traj::TrajectoryFeatureExtractor::FeatureIndex("distance_max")
                .value());

  EXPECT_FALSE(LoadFig3FeatureSubset(path, "importance", 10).ok());
  EXPECT_FALSE(LoadFig3FeatureSubset(path, "nope", 1).ok());
  EXPECT_FALSE(LoadFig3FeatureSubset(path, "importance", 0).ok());
}

// ------------------------------------------------------------- Replay --

TEST(ReplayTest, MatchesOfflinePipelineExactly) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ServingPlane plane(&registry, {});
  const auto report = ReplayCorpus(fixture.corpus, fixture.labels, plane);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Identically-segmented data: same evaluated segments, same number of
  // correct predictions, hence identical accuracy.
  EXPECT_EQ(report->segments_evaluated, fixture.dataset.num_samples());
  EXPECT_EQ(report->correct, fixture.offline_correct);
  EXPECT_DOUBLE_EQ(
      report->accuracy(),
      static_cast<double>(fixture.offline_correct) /
          static_cast<double>(fixture.dataset.num_samples()));

  // Same label multiset (replay closes in global time order, the offline
  // dataset in per-user corpus order).
  std::multiset<int> online(report->y_true.begin(), report->y_true.end());
  std::multiset<int> offline(fixture.dataset.labels().begin(),
                             fixture.dataset.labels().end());
  EXPECT_EQ(online, offline);
  EXPECT_EQ(report->session_stats.segments_emitted,
            report->segments_closed);
}

TEST(ReplayTest, ClosedSinkSeesEverySegmentWithItsResolvedPrediction) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ServingPlane plane(&registry, {});
  ReplayOptions options;
  std::vector<int> sink_predictions;
  size_t sink_with_bbox = 0;
  options.closed_sink = [&](const ClosedSegment& segment,
                            int predicted_class) {
    if (segment.bbox.IsInitialized()) ++sink_with_bbox;
    EXPECT_GT(segment.num_points, 0u);
    sink_predictions.push_back(predicted_class);
  };
  const auto report = ReplayCorpus(fixture.corpus, fixture.labels,
                                   plane, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // One sink call per closed segment, each carrying an MBR; the evaluated
  // ones carry the exact class the predictor answered (close order), the
  // rest -1.
  EXPECT_EQ(sink_predictions.size(), report->segments_closed);
  EXPECT_EQ(sink_with_bbox, report->segments_closed);
  std::vector<int> evaluated;
  for (const int cls : sink_predictions) {
    if (cls >= 0) evaluated.push_back(cls);
  }
  EXPECT_EQ(evaluated, report->y_pred);
}

TEST(ReplayTest, PeriodicIdleEvictionStillEvaluatesEverySegment) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ServingPlaneOptions plane_options;
  plane_options.session.idle_after_seconds = 6.0 * 3600.0;
  ServingPlane plane(&registry, plane_options);
  ReplayOptions options;
  options.evict_every_points = 1000;
  const auto report = ReplayCorpus(fixture.corpus, fixture.labels,
                                   plane, options);
  ASSERT_TRUE(report.ok());
  // Eviction at a 6h horizon only closes sessions at boundaries the
  // splitter would cut anyway (day change), so nothing is lost.
  EXPECT_EQ(report->segments_evaluated, fixture.dataset.num_samples());
  EXPECT_EQ(report->correct, fixture.offline_correct);
}

// ------------------------------------------------- Request lifecycle --

TEST(BatchPredictorTest, ExpiredDeadlineFailsFastAtSubmit) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ParkedWorker parked;
  BatchPredictor predictor(&registry, parked.Options());
  parked.Park(predictor);
  const size_t accepted = predictor.counters().requests;  // The blocker.
  auto future = predictor.Submit(
      PredictRequest(FixtureRow(0), RequestContext::WithTimeout(-1.0)));
  // Resolves without any dispatch: the request never entered the queue.
  const auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(predictor.counters().requests, accepted);
}

TEST(BatchPredictorTest, DeadlineExpiresWhileQueued) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  // The worker is busy with the blocker for far longer than the doomed
  // request's deadline: the sweep the freed worker runs before taking its
  // next batch must expire it while still queued (no Flush).
  ParkedWorker parked;
  BatchPredictor predictor(&registry, parked.Options());
  parked.Park(predictor);
  auto doomed = predictor.Submit(
      PredictRequest(FixtureRow(0), RequestContext::WithTimeout(0.005)));
  auto patient = predictor.Submit(PredictRequest(FixtureRow(1)));
  const auto result = doomed.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("while queued"),
            std::string::npos)
      << result.status().message();
  EXPECT_EQ(predictor.counters().deadline_exceeded, 1u);
  // The deadline-free neighbour is untouched by the sweep.
  predictor.Flush();
  const auto kept = patient.get();
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.value().label, fixture.offline_predictions[1]);
}

TEST(BatchPredictorTest, AdmissionShedsLowestPriorityFirst) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ParkedWorker parked;
  BatchPredictorOptions options = parked.Options();
  options.max_queue = 2;
  BatchPredictor predictor(&registry, options);
  parked.Park(predictor);  // The blocker has left the queue.

  const auto submit = [&](size_t row, int priority) {
    PredictRequest request(FixtureRow(row));
    request.context.priority = priority;
    return predictor.Submit(std::move(request));
  };
  auto a = submit(0, 1);
  auto b = submit(1, 1);
  // Queue full; an equal-or-lower-priority newcomer is itself rejected...
  auto c = submit(2, 0);
  const auto c_result = c.get();
  ASSERT_FALSE(c_result.ok());
  EXPECT_EQ(c_result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(c_result.status().message().find("queue full"),
            std::string::npos);
  // ... while a higher-priority newcomer preempts the oldest lowest.
  auto d = submit(3, 5);
  const auto a_result = a.get();
  ASSERT_FALSE(a_result.ok());
  EXPECT_EQ(a_result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(a_result.status().message().find("preempted"),
            std::string::npos);
  EXPECT_EQ(predictor.counters().shed, 2u);

  predictor.Flush();
  const auto b_result = b.get();
  ASSERT_TRUE(b_result.ok());
  EXPECT_EQ(b_result.value().label, fixture.offline_predictions[1]);
  const auto d_result = d.get();
  ASSERT_TRUE(d_result.ok());
  EXPECT_EQ(d_result.value().label, fixture.offline_predictions[3]);
}

// --------------------------------------------------- Degradation chain --

TEST(BatchPredictorTest, RegistryStallFallsBackToPreviousGoodModel) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  FaultSpec spec;
  spec.swap_stall_p = 1.0;  // Every batch loses the registry...
  FaultInjector injector(spec);
  injector.set_enabled(false);  // ... once enabled.
  BatchPredictorOptions options;
  options.fault_injector = &injector;
  BatchPredictor predictor(&registry, options);

  // First batch serves clean and caches the snapshot.
  auto clean = predictor.Submit(PredictRequest(FixtureRow(0)));
  const auto clean_result = clean.get();
  ASSERT_TRUE(clean_result.ok());
  EXPECT_EQ(clean_result.value().degradation, DegradationLevel::kNone);

  injector.set_enabled(true);
  auto degraded = predictor.Submit(PredictRequest(FixtureRow(1)));
  const auto result = degraded.get();
  ASSERT_TRUE(result.ok());
  // Same model, same (bit-identical) answer — only the rung differs.
  EXPECT_EQ(result.value().degradation, DegradationLevel::kPreviousModel);
  EXPECT_EQ(result.value().model_version, "v1");
  EXPECT_EQ(result.value().label, fixture.offline_predictions[1]);
  EXPECT_GE(predictor.counters().degraded, 1u);
}

TEST(BatchPredictorTest, NoModelAnywhereFallsBackToLabelPrior) {
  ModelRegistry registry;  // Nothing registered: both model rungs miss.
  BatchPredictorOptions options;
  options.label_prior = {1.0, 6.0, 3.0};
  BatchPredictor predictor(&registry, options);
  auto future = predictor.Submit(PredictRequest(
      std::vector<double>(traj::kNumTrajectoryFeatures, 0.0)));
  const auto result = future.get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().label, 1);  // argmax of the prior.
  EXPECT_EQ(result.value().degradation, DegradationLevel::kMajorityClass);
  EXPECT_EQ(result.value().model_version, "label_prior");
  ASSERT_EQ(result.value().probabilities.size(), 3u);
  EXPECT_DOUBLE_EQ(result.value().probabilities[1], 0.6);
}

TEST(BatchPredictorTest, TransientFaultRespectsRetryBudget) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  FaultSpec spec;
  spec.predict_fail_p = 1.0;
  FaultInjector injector(spec);
  BatchPredictorOptions options;
  options.fault_injector = &injector;
  options.label_prior = {2.0, 1.0};
  BatchPredictor predictor(&registry, options);

  // Budget left: the caller gets the retryable error back.
  PredictRequest retryable(FixtureRow(0));
  retryable.context.retry_budget = 1;
  const auto retry_result = predictor.Submit(std::move(retryable)).get();
  ASSERT_FALSE(retry_result.ok());
  EXPECT_EQ(retry_result.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetryableStatus(retry_result.status()));
  EXPECT_EQ(predictor.counters().unavailable, 1u);

  // Budget spent: degrade to the label prior instead of failing.
  const auto spent_result =
      predictor.Submit(PredictRequest(FixtureRow(0))).get();
  ASSERT_TRUE(spent_result.ok());
  EXPECT_EQ(spent_result.value().degradation,
            DegradationLevel::kMajorityClass);
  EXPECT_EQ(spent_result.value().label, 0);
}

TEST(BatchPredictorTest, DisabledInjectorKeepsAnswersBitIdentical) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  // Every fault at p=1 — but the kill switch must make the wiring inert,
  // preserving the online==offline parity contract bit for bit.
  FaultSpec spec;
  spec.swap_stall_p = 1.0;
  spec.swap_stall_latency_ms = 5.0;
  spec.predict_fail_p = 1.0;
  spec.batch_delay_p = 1.0;
  spec.batch_delay_latency_ms = 5.0;
  FaultInjector injector(spec);
  injector.set_enabled(false);
  BatchPredictorOptions options;
  options.fault_injector = &injector;
  BatchPredictor predictor(&registry, options);
  std::vector<std::future<Result<Prediction>>> futures;
  for (size_t r = 0; r < fixture.dataset.num_samples(); ++r) {
    futures.push_back(predictor.Submit(PredictRequest(FixtureRow(r))));
  }
  for (size_t r = 0; r < futures.size(); ++r) {
    auto result = futures[r].get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().label, fixture.offline_predictions[r]);
    EXPECT_EQ(result.value().degradation, DegradationLevel::kNone);
  }
  EXPECT_EQ(predictor.counters().degraded, 0u);
  EXPECT_EQ(predictor.counters().unavailable, 0u);
}

// ------------------------------------------------------ Fault injector --

TEST(FaultSpecTest, ParsesClausesAndSeed) {
  const auto spec = FaultSpec::Parse(
      "swap_stall:p=0.01,latency_ms=50;predict_fail:p=0.02;"
      "batch_delay:p=0.1,latency_ms=5;seed=42");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DOUBLE_EQ(spec->swap_stall_p, 0.01);
  EXPECT_DOUBLE_EQ(spec->swap_stall_latency_ms, 50.0);
  EXPECT_DOUBLE_EQ(spec->predict_fail_p, 0.02);
  EXPECT_DOUBLE_EQ(spec->batch_delay_p, 0.1);
  EXPECT_DOUBLE_EQ(spec->batch_delay_latency_ms, 5.0);
  EXPECT_EQ(spec->seed, 42u);

  // Empty spec = all faults off, default seed.
  const auto empty = FaultSpec::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_DOUBLE_EQ(empty->swap_stall_p, 0.0);
  EXPECT_DOUBLE_EQ(empty->predict_fail_p, 0.0);
  EXPECT_DOUBLE_EQ(empty->batch_delay_p, 0.0);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultSpec::Parse("quantum_flip:p=1").ok());
  EXPECT_FALSE(FaultSpec::Parse("predict_fail:p=1.5").ok());
  EXPECT_FALSE(FaultSpec::Parse("predict_fail:p=-0.1").ok());
  EXPECT_FALSE(FaultSpec::Parse("predict_fail:p=abc").ok());
  EXPECT_FALSE(FaultSpec::Parse("swap_stall:latency_ms=-3").ok());
  EXPECT_FALSE(FaultSpec::Parse("swap_stall:q=1").ok());
  EXPECT_FALSE(FaultSpec::Parse("predict_fail:latency_ms=5").ok());
  EXPECT_FALSE(FaultSpec::Parse("seed").ok());
  EXPECT_FALSE(FaultSpec::Parse("predict_fail").ok());
}

TEST(FaultInjectorTest, DeterministicDrawSequence) {
  FaultSpec spec;
  spec.predict_fail_p = 0.5;
  spec.batch_delay_p = 0.5;
  spec.batch_delay_latency_ms = 2.0;
  spec.seed = 7;
  FaultInjector a(spec);
  FaultInjector b(spec);
  for (int i = 0; i < 64; ++i) {
    const auto fa = a.Next();
    const auto fb = b.Next();
    EXPECT_EQ(fa.stall_registry, fb.stall_registry);
    EXPECT_EQ(fa.fail_predict, fb.fail_predict);
    EXPECT_EQ(fa.delay_seconds, fb.delay_seconds);
  }
}

// ------------------------------------------------------- Chaos replay --

TEST(ReplayTest, ChaosReplayAccountsEveryRequest) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());

  FaultSpec spec;
  spec.swap_stall_p = 0.2;
  spec.swap_stall_latency_ms = 1.0;
  spec.predict_fail_p = 0.3;
  spec.batch_delay_p = 0.3;
  spec.batch_delay_latency_ms = 1.0;
  spec.seed = 11;
  FaultInjector injector(spec);

  BatchPredictorOptions batching;
  batching.fault_injector = &injector;
  batching.max_queue = 8;
  // Label prior from the training annotations backs the last rung.
  batching.label_prior.assign(fixture.labels.num_classes(), 0.0);
  for (const int label : fixture.dataset.labels()) {
    batching.label_prior[static_cast<size_t>(label)] += 1.0;
  }
  ServingPlaneOptions plane_options;
  plane_options.batching = batching;
  ServingPlane plane(&registry, plane_options);

  ReplayOptions options;
  options.deadline_seconds = 0.25;
  options.retry_budget = 2;
  options.retry.initial_backoff_seconds = 0.0005;
  options.retry.max_backoff_seconds = 0.002;
  const auto report =
      ReplayCorpus(fixture.corpus, fixture.labels, plane, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The lifecycle invariant: every submitted request resolves exactly one
  // way — evaluated (possibly degraded), shed, or deadline-exceeded.
  const size_t submitted =
      report->segments_closed - report->segments_outside_label_set;
  EXPECT_EQ(report->segments_evaluated + report->shed +
                report->deadline_exceeded,
            submitted);
  EXPECT_EQ(report->y_true.size(), report->segments_evaluated);
  EXPECT_EQ(report->y_pred.size(), report->segments_evaluated);
  // With these seeds the chaos actually bites somewhere.
  EXPECT_GT(report->degraded + report->retries + report->shed +
                report->deadline_exceeded,
            0u);
  // The per-rung split sums to the total (the CLI accounting line and
  // the CI chaos assertion read these fields).
  EXPECT_EQ(report->degraded_previous_model + report->degraded_majority_class,
            report->degraded);
}

// ------------------------------------------------- Request tracing --

/// Scoped enable/disable of the global flight recorder, so a failing
/// test can't leave tracing on for the rest of the binary.
class ScopedTracer {
 public:
  explicit ScopedTracer(uint64_t sample_every = 1,
                        size_t buffer_capacity = 1 << 16) {
    obs::RequestTracerOptions options;
    options.enabled = true;
    options.sample_every = sample_every;
    options.buffer_capacity = buffer_capacity;
    obs::RequestTracer::Global().Configure(options);
  }
  ~ScopedTracer() { obs::RequestTracer::Global().Reset(); }
};

TEST(RequestTracingTest, TraceIdFlowsSubmitToPredictToTerminal) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ScopedTracer tracing;
  obs::RequestTracer& tracer = obs::RequestTracer::Global();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  {
    BatchPredictor predictor(&registry);
    PredictRequest request(FixtureRow(0));
    EXPECT_EQ(request.context.trace_id, 0u);  // Submit mints
    const auto result = predictor.Submit(std::move(request)).get();
    ASSERT_TRUE(result.ok());
  }  // join the worker so every event is recorded before the snapshot
  std::set<std::string> names;
  for (const obs::TraceEvent& event : tracer.SnapshotEvents()) {
    if (event.trace_id == 1) names.insert(event.name);
  }
  // The full lifecycle of trace 1, end to end.
  EXPECT_TRUE(names.count("submit"));
  EXPECT_TRUE(names.count("queue"));
  EXPECT_TRUE(names.count("batch"));
  EXPECT_TRUE(names.count("predict"));
  EXPECT_TRUE(names.count("done"));
  EXPECT_TRUE(tracer.Exported(1));
}

TEST(RequestTracingTest, BadOutcomesAreTailKeptEvenWhenNotSampled) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  // Head sampling set far above the request count: nothing is sampled,
  // so only the tail-keep override can export anything.
  ScopedTracer tracing(/*sample_every=*/1u << 20);
  obs::RequestTracer& tracer = obs::RequestTracer::Global();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  FaultSpec spec;
  spec.predict_fail_p = 1.0;  // every batch fails its predict
  FaultInjector injector(spec);
  BatchPredictorOptions options;
  options.fault_injector = &injector;
  options.label_prior = {2.0, 1.0};
  {
    BatchPredictor predictor(&registry, options);
    // No retry budget: the predictor degrades to the label prior.
    const auto result =
        predictor.Submit(PredictRequest(FixtureRow(0))).get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().degradation, DegradationLevel::kMajorityClass);
  }
  EXPECT_FALSE(tracer.Sampled(1));
  EXPECT_TRUE(tracer.Exported(1));  // tail-kept despite sampling
  const std::vector<obs::RetainedTraceInfo> retained =
      tracer.RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0].id, 1u);
  EXPECT_STREQ(retained[0].outcome, "done");
  EXPECT_TRUE(retained[0].fault);
  EXPECT_TRUE(retained[0].degraded);
  const std::string dump = tracer.ToTestFormat();
  EXPECT_NE(dump.find("trace 1 tail_kept 1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("instant degraded/majority_class"),
            std::string::npos)
      << dump;
}

/// One fault-free replay of the shared fixture with tracing on; returns
/// the deterministic trace dump. The predictor is destroyed (worker
/// joined) before the dump so every event has been recorded.
std::string TracedReplayDump(int threads) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  SetMaxThreads(threads);
  ScopedTracer tracing(/*sample_every=*/2);
  ModelRegistry registry;
  TRAJKIT_CHECK(registry.Publish(fixture.model).ok());
  {
    ServingPlane plane(&registry, {});
    const auto report =
        ReplayCorpus(fixture.corpus, fixture.labels, plane, {});
    TRAJKIT_CHECK(report.ok());
    TRAJKIT_CHECK(report->segments_evaluated > 0);
  }
  return obs::RequestTracer::Global().ToTestFormat();
}

TEST(RequestTracingTest, TestFormatDumpIsThreadCountInvariant) {
  const int prior_threads = MaxThreads();
  const std::string at_one_thread = TracedReplayDump(1);
  const std::string at_eight_threads = TracedReplayDump(8);
  SetMaxThreads(prior_threads);
  // Byte-identical: trace ids are minted on the single-threaded ingest
  // path and the dump replaces timestamps with lifecycle ranks, so
  // worker interleaving and batch composition cannot leak in.
  EXPECT_EQ(at_one_thread, at_eight_threads);
  // And it actually traced something, head-sampled at every 2nd id.
  EXPECT_NE(at_one_thread.find("sample_every 2"), std::string::npos);
  EXPECT_NE(at_one_thread.find("trace 2 tail_kept 0"), std::string::npos)
      << at_one_thread;
  EXPECT_EQ(at_one_thread.find("trace 1 "), std::string::npos);
  EXPECT_NE(at_one_thread.find("span predict"), std::string::npos);
}

TEST(StatuszTest, RendersEverySectionFromRegistryAndTracer) {
  obs::MetricsRegistry metrics;
  metrics.SetInfo("serve.registry.active_version", "test-v7");
  metrics.GetGauge("serve.registry.models").Set(2);
  metrics.GetCounter("serve.batch_predictor.requests").Increment(10);
  metrics.GetCounter("serve.degraded_total.previous_model").Increment(3);
  metrics.GetHistogram("serve.batch_predictor.latency_seconds")
      .Observe(0.001, /*exemplar_trace_id=*/9);

  ScopedTracer tracing;
  obs::RequestTracer& tracer = obs::RequestTracer::Global();
  const obs::TraceId id = tracer.Mint();
  tracer.RecordInstant(id, "submit", obs::TracePhase::kSubmit, 10);
  tracer.RecordInstant(id, "shed", obs::TracePhase::kTerminal, 20);
  tracer.Retain(id);

  const std::string page = RenderStatusPage(metrics, tracer);
  EXPECT_NE(page.find("==== trajkit statusz ===="), std::string::npos);
  EXPECT_NE(page.find("active_version: test-v7"), std::string::npos);
  EXPECT_NE(page.find("requests: 10"), std::string::npos);
  EXPECT_NE(page.find("previous_model=3"), std::string::npos);
  EXPECT_NE(page.find("exemplar trace 9"), std::string::npos) << page;
  EXPECT_NE(page.find("trace 1  events=2  outcome=shed"), std::string::npos)
      << page;
  // Missing metrics render as zeros, not crashes (lookups never create).
  EXPECT_NE(page.find("swap_stall: 0"), std::string::npos);
}

TEST(StatuszTest, GoldenEmptyPageRendersEverySectionWithPlaceholders) {
  // The full-page golden: an empty registry and a disabled tracer still
  // render EVERY section, with "(no data)" placeholders where a subsystem
  // has emitted nothing — a scraper parsing section headers never has to
  // handle an absent section.
  obs::MetricsRegistry metrics;
  obs::RequestTracer tracer;
  const std::string expected =
      "==== trajkit statusz ====\n"
      "model\n"
      "  active_version: (none)\n"
      "  registered: 0\n"
      "  swaps: 0  promotions: 0\n"
      "  flat_form: (not compiled)\n"
      "queue\n"
      "  depth: 0\n"
      "  requests: 0\n"
      "  batches: 0\n"
      "lifecycle\n"
      "  shed: 0 (queue_full=0, preempted=0)\n"
      "  degraded: 0 (previous_model=0, majority_class=0)\n"
      "  deadline_exceeded: 0\n"
      "  unavailable: 0\n"
      "faults injected\n"
      "  swap_stall: 0\n"
      "  predict_fail: 0\n"
      "  batch_delay: 0\n"
      "shadow\n"
      "  (no data)\n"
      "continuous training\n"
      "  (no data)\n"
      "registry audit (most recent last)\n"
      "  (no data)\n"
      "shards\n"
      "  (no data)\n"
      "latency (serve.batch_predictor.latency_seconds)\n"
      "  (no observations)\n"
      "slo\n"
      "  (no data)\n"
      "timeseries\n"
      "  (no data)\n"
      "store\n"
      "  (no data)\n"
      "retained traces: (tracing disabled)\n";
  EXPECT_EQ(RenderStatusPage(metrics, tracer), expected);
}

TEST(StatuszTest, RendersSloAndTimeseriesSectionsWhenWired) {
  obs::MetricsRegistry metrics;
  obs::Counter& shed = metrics.GetCounter("serve.shed_total.queue_full");
  obs::Counter& total = metrics.GetCounter("serve.batch_predictor.requests");
  obs::TimeSeriesStore store(metrics);
  std::vector<obs::SloSpec> specs;
  std::string error;
  ASSERT_TRUE(obs::ParseSloSpecs(
      "shed:type=ratio,bad=serve.shed_total.queue_full,"
      "total=serve.batch_predictor.requests,budget=0.5,fast=1,slow=1",
      &specs, &error))
      << error;
  obs::SloEngine engine(&store, &metrics, specs);
  total.Increment(10);
  store.Tick(0.0);
  engine.Evaluate(0);
  total.Increment(10);
  shed.Increment(10);
  store.Tick(1.0);
  engine.Evaluate(1);

  obs::RequestTracer tracer;
  StatusPageOptions options;
  options.timeseries = &store;
  options.slo = &engine;
  const std::string page = RenderStatusPage(metrics, tracer, options);
  // Bad fraction 1.0 against a 0.5 budget: burn rate 2 in both windows.
  EXPECT_NE(page.find("shed: BREACH  burn_fast=2 burn_slow=2 "
                      "budget_remaining=0 transitions=1"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("ticks: 2 (capacity 512)"), std::string::npos);
  EXPECT_NE(page.find("serve.batch_predictor.requests"), std::string::npos);
  // Counters plot per-tick increments, peaking at the full block.
  EXPECT_NE(page.find("█"), std::string::npos);
  EXPECT_NE(page.find("delta=10"), std::string::npos);
}

TEST(StatuszTest, SparklineNormalizesToMax) {
  EXPECT_EQ(Sparkline({}), "");
  // All-zero (and all-equal-at-zero) input stays on the lowest block.
  EXPECT_EQ(Sparkline({0.0, 0.0}), "▁▁");
  // Max maps to the full block, 0 to the lowest, midpoints interpolate.
  EXPECT_EQ(Sparkline({0.0, 4.0, 8.0}), "▁▅█");
  // Negative values clamp to the lowest block rather than indexing UB.
  EXPECT_EQ(Sparkline({-1.0, 1.0}), "▁█");
}

}  // namespace
}  // namespace trajkit::serve
