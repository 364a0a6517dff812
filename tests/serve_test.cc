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
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/retry.h"
#include "common/rng.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "ml/flat_forest.h"
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
#include "store/trajectory_store.h"
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

// A fix with a NaN or infinite coordinate or timestamp, or a latitude
// past the pole, never reaches a session: it is dropped as the GeoLife
// reader drops it. The segment around the hostile fixes is the clean one
// bit for bit, and its MBR stays finite, so the store log of it loads.
TEST(SessionManagerTest, InvalidFixesDroppedBeforeTheyReachASession) {
  Rng rng(29);
  const std::vector<traj::TrajectoryPoint> clean =
      RandomSegmentPoints(rng, 40);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  enum Field { kLat, kLon, kTime };
  struct Break {
    Field field;
    double value;
  };
  const std::vector<Break> breaks = {
      {kLat, nan},  {kLat, inf},  {kLat, -inf}, {kLat, 91.0},
      {kLon, nan},  {kLon, inf},  {kLon, -inf}, {kLon, -180.5},
      {kTime, nan}, {kTime, inf}, {kTime, -inf}};
  // Break k goes in front of clean fix 3k, the first one included, as a
  // copy of that fix with one field broken.
  std::vector<traj::TrajectoryPoint> stream;
  for (size_t i = 0; i < clean.size(); ++i) {
    if (i % 3 == 0 && i / 3 < breaks.size()) {
      const Break& bad = breaks[i / 3];
      traj::TrajectoryPoint point = clean[i];
      if (bad.field == kLat) point.pos.lat_deg = bad.value;
      if (bad.field == kLon) point.pos.lon_deg = bad.value;
      if (bad.field == kTime) point.timestamp = bad.value;
      stream.push_back(point);
    }
    stream.push_back(clean[i]);
  }
  ASSERT_EQ(stream.size(), clean.size() + breaks.size());

  SessionManager sessions(ParityOptions());
  std::vector<ClosedSegment> closed;
  for (const auto& point : stream) sessions.Ingest(3, point, &closed);
  sessions.FlushAll(&closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].num_points, clean.size());
  ExpectBitIdentical(closed[0].features, BatchFeatures(clean));
  EXPECT_EQ(sessions.stats().points_ingested, stream.size());
  EXPECT_EQ(sessions.stats().points_dropped_invalid, breaks.size());
  EXPECT_EQ(sessions.stats().points_dropped_out_of_order, 0u);
  geo::BoundingBox bbox;
  for (const auto& point : clean) bbox.Extend(point.pos);
  EXPECT_EQ(closed[0].bbox.min_lat, bbox.min_lat);
  EXPECT_EQ(closed[0].bbox.max_lat, bbox.max_lat);
  EXPECT_EQ(closed[0].bbox.min_lon, bbox.min_lon);
  EXPECT_EQ(closed[0].bbox.max_lon, bbox.max_lon);

  const std::string path =
      (std::filesystem::temp_directory_path() / "trajkit_serve_hostile.log")
          .string();
  store::TrajectoryStore store;
  store.Ingest(store::FromClosedSegment(closed[0], closed[0].mode));
  ASSERT_TRUE(store.SaveTo(path).ok());
  store::TrajectoryStore loaded;
  const Status status = loaded.Load(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.Segment(0).bbox.min_lat, bbox.min_lat);
  EXPECT_EQ(loaded.Segment(0).start_time, clean.front().timestamp);
  EXPECT_EQ(loaded.Segment(0).end_time, clean.back().timestamp);
}

// A finite timestamp so far out that floor(t / 86400) does not fit
// int64_t has no day index; casting it would be undefined behaviour. Such
// a fix is dropped as invalid, like a NaN one, and the segment around it
// is the clean one bit for bit.
TEST(SessionManagerTest, TimestampsWithoutADayIndexAreDropped) {
  Rng rng(31);
  const std::vector<traj::TrajectoryPoint> clean =
      RandomSegmentPoints(rng, 40);
  const double hostile[] = {1e300, -1e300, 1e30, -1e30};
  std::vector<traj::TrajectoryPoint> stream;
  for (size_t i = 0; i < clean.size(); ++i) {
    // Hostile fix k goes in front of clean fix 5k, the first one included.
    if (i % 5 == 0 && i / 5 < std::size(hostile)) {
      traj::TrajectoryPoint point = clean[i];
      point.timestamp = hostile[i / 5];
      stream.push_back(point);
    }
    stream.push_back(clean[i]);
  }

  SessionManager sessions(ParityOptions());
  std::vector<ClosedSegment> closed;
  for (const auto& point : stream) sessions.Ingest(5, point, &closed);
  sessions.FlushAll(&closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].num_points, clean.size());
  EXPECT_EQ(closed[0].start_time, clean.front().timestamp);
  ExpectBitIdentical(closed[0].features, BatchFeatures(clean));
  EXPECT_EQ(sessions.stats().points_ingested, stream.size());
  EXPECT_EQ(sessions.stats().points_dropped_invalid, std::size(hostile));
  EXPECT_EQ(sessions.stats().points_dropped_out_of_order, 0u);
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

// ------------------------------------------------------- Session table --

// The reference: one single-session manager per id, kept in a std::map. No
// manager's table ever holds more than one session, so the reference's
// order and membership are the map's.
class MapKeyedSessions {
 public:
  explicit MapKeyedSessions(SessionOptions options) : options_(options) {}

  void Ingest(int64_t id, const traj::TrajectoryPoint& point,
              std::vector<ClosedSegment>* closed) {
    auto it = managers_.try_emplace(id, options_).first;
    it->second.Ingest(id, point, closed);
    if (it->second.num_open_sessions() == 0) managers_.erase(it);
  }
  void CloseSession(int64_t id, std::vector<ClosedSegment>* closed) {
    auto it = managers_.find(id);
    if (it == managers_.end()) return;
    it->second.CloseSession(id, CloseReason::kFlush, closed);
    managers_.erase(it);
  }
  void FlushAll(std::vector<ClosedSegment>* closed) {
    for (auto& [id, manager] : managers_) manager.FlushAll(closed);
    managers_.clear();
  }
  std::vector<int64_t> OpenSessionIds() const {
    std::vector<int64_t> ids;
    for (const auto& [id, manager] : managers_) ids.push_back(id);
    return ids;
  }
  size_t num_open_sessions() const { return managers_.size(); }

 private:
  SessionOptions options_;
  std::map<int64_t, SessionManager> managers_;
};

void ExpectSameSegment(const ClosedSegment& got, const ClosedSegment& want) {
  EXPECT_EQ(got.session_id, want.session_id);
  EXPECT_EQ(got.user_id, want.user_id);
  EXPECT_EQ(got.day, want.day);
  EXPECT_EQ(got.mode, want.mode);
  EXPECT_EQ(got.start_time, want.start_time);
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.num_points, want.num_points);
  EXPECT_EQ(got.reason, want.reason);
  EXPECT_EQ(got.bbox.min_lat, want.bbox.min_lat);
  EXPECT_EQ(got.bbox.max_lat, want.bbox.max_lat);
  EXPECT_EQ(got.bbox.min_lon, want.bbox.min_lon);
  EXPECT_EQ(got.bbox.max_lon, want.bbox.max_lon);
  ExpectBitIdentical(got.features, want.features);
}

// `count` ids that share `bits` of their Mix64 hash with `seed`'s, found
// by search from `seed` outwards.
std::vector<int64_t> IdsSharingHashBits(int64_t seed, uint64_t bits,
                                        size_t count) {
  const uint64_t want = Mix64(static_cast<uint64_t>(seed)) & bits;
  std::vector<int64_t> ids;
  for (int64_t step = 1; ids.size() < count; ++step) {
    for (const int64_t id : {seed + step, seed - step}) {
      if ((Mix64(static_cast<uint64_t>(id)) & bits) == want) ids.push_back(id);
    }
  }
  return ids;
}

// One SessionManager against the map-keyed reference over a random stream
// of ingests, closes, reopens and flushes: the same segments in the same
// order, and the same ascending open ids and count after every call.
TEST(SessionTableTest, MatchesMapKeyedReference) {
  SessionOptions options;
  options.min_points = 3;
  options.max_gap_seconds = 3600.0;
  options.max_segment_points = 50;
  SessionManager sessions(options);
  MapKeyedSessions reference(options);

  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> ids = {kMin, kMin + 1, kMax, kMax - 1, -1, 0, 1, -42};
  // The home slot is the top bits of the hash, and a power-of-two shard
  // count routes on its low bits. Ids alike in the top bits share a home
  // slot; ids alike in the low bits would share one too if the table
  // indexed by them. 10 alike bits hold at every size up to 1024 slots.
  for (const int64_t id : IdsSharingHashBits(7, 0x3ffULL << 54, 12)) {
    ids.push_back(id);
  }
  for (const int64_t id : IdsSharingHashBits(-7, 0x3ffULL, 12)) {
    ids.push_back(id);
  }
  Rng rng(37);
  while (ids.size() < 320) {
    ids.push_back(static_cast<int64_t>(rng.NextUint64()));
  }

  struct Walk {
    double t = 1.2e9;
    geo::LatLon pos{39.9, 116.3};
    traj::Mode mode = traj::Mode::kWalk;
  };
  std::map<int64_t, Walk> walks;
  const traj::Mode modes[] = {traj::Mode::kWalk, traj::Mode::kBus,
                              traj::Mode::kUnknown};

  std::vector<ClosedSegment> got;
  std::vector<ClosedSegment> want;
  size_t max_open = 0;
  size_t flushes = 0;
  size_t reopens = 0;
  std::set<int64_t> closed_ids;
  for (int step = 0; step < 20000; ++step) {
    const int64_t id = ids[rng.NextBounded(ids.size())];
    // The first 3000 steps only ingest, so nearly every id gets to be open
    // at once before closes and flushes start.
    const uint64_t action = step < 3000 ? 1000 : rng.NextBounded(1000);
    if (action < 2) {
      sessions.FlushAll(&got);
      reference.FlushAll(&want);
      ++flushes;
    } else if (action < 40) {
      sessions.CloseSession(id, CloseReason::kFlush, &got);
      reference.CloseSession(id, &want);
      closed_ids.insert(id);
    } else {
      Walk& walk = walks[id];
      traj::TrajectoryPoint point;
      walk.t += rng.Uniform(1.0, 120.0);
      if (rng.NextBounded(200) == 0) walk.t += 86400.0;  // Next day.
      if (rng.NextBounded(100) == 0) walk.t += 7200.0;   // Time gap.
      if (rng.NextBounded(40) == 0) walk.mode = modes[rng.NextBounded(3)];
      walk.pos.lat_deg += rng.Gaussian(0.0, 1e-4);
      walk.pos.lon_deg += rng.Gaussian(0.0, 1e-4);
      point.pos = walk.pos;
      point.timestamp = walk.t;
      point.mode = walk.mode;
      if (rng.NextBounded(50) == 0) point.timestamp -= 600.0;  // Stale.
      if (rng.NextBounded(200) == 0) point.timestamp = 1e300;  // No day.
      if (closed_ids.erase(id) > 0) ++reopens;
      sessions.Ingest(id, point, &got);
      reference.Ingest(id, point, &want);
    }
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    const std::vector<int64_t> open = sessions.OpenSessionIds();
    ASSERT_EQ(open, reference.OpenSessionIds()) << "step " << step;
    ASSERT_EQ(sessions.num_open_sessions(), reference.num_open_sessions())
        << "step " << step;
    max_open = std::max(max_open, open.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameSegment(got[i], want[i]);
  }
  // The stream did what it is for: several growths (from 16 slots at most
  // half full, 257 open sessions take six), flushes and reopened ids.
  EXPECT_GT(max_open, 256u);
  EXPECT_GE(flushes, 10u);
  EXPECT_GT(reopens, 100u);
  EXPECT_GT(got.size(), 1000u);
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

// Where and when a close happened, to match sink deliveries to closes.
struct CloseKey {
  int64_t session_id;
  double start_time;
  double end_time;
  traj::Mode mode;

  static CloseKey Of(const ClosedSegment& segment) {
    return {segment.session_id, segment.start_time, segment.end_time,
            segment.mode};
  }
  bool operator==(const CloseKey& other) const {
    return session_id == other.session_id &&
           start_time == other.start_time && end_time == other.end_time &&
           mode == other.mode;
  }
};

// Every barrier delivers what it resolved: at each telemetry tick the sink
// has already received every segment closed so far, in close order, each
// with the class the predictor answered (-1 outside the label set).
TEST(ReplayTest, SinkDeliversAtEachBarrierInCloseOrder) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  // 32-fix windows, as the windowed workload serves, give many closes.
  ServingPlaneOptions plane_options;
  plane_options.shards = 2;
  plane_options.session.max_segment_points = 32;
  ServingPlane plane(&registry, plane_options);
  std::vector<CloseKey> closes;
  plane.set_closed_sink([&](const ClosedSegment& segment) {
    closes.push_back(CloseKey::Of(segment));
  });
  std::vector<CloseKey> delivered;
  std::vector<int> delivered_class;
  std::vector<size_t> delivered_at_tick;
  ReplayOptions options;
  options.closed_sink = [&](const ClosedSegment& segment,
                            int predicted_class) {
    delivered.push_back(CloseKey::Of(segment));
    delivered_class.push_back(predicted_class);
  };
  constexpr size_t kTickEvery = 16;
  options.tick_every_segments = kTickEvery;
  options.tick = [&] {
    EXPECT_EQ(delivered.size(), plane.session_stats().segments_emitted)
        << "tick " << delivered_at_tick.size();
    delivered_at_tick.push_back(delivered.size());
  };
  const auto report =
      ReplayCorpus(fixture.corpus, fixture.labels, plane, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Every tick but the final one fires once its cadence is reached, and
  // each sees at least the segments of its own interval delivered.
  ASSERT_GE(delivered_at_tick.size(), 10u);
  for (size_t t = 0; t + 1 < delivered_at_tick.size(); ++t) {
    EXPECT_GE(delivered_at_tick[t], (t + 1) * kTickEvery) << "tick " << t;
  }
  EXPECT_EQ(delivered_at_tick.back(), report->segments_closed);

  ASSERT_EQ(delivered.size(), report->segments_closed);
  EXPECT_TRUE(delivered == closes);
  std::vector<int> evaluated;
  for (size_t i = 0; i < delivered.size(); ++i) {
    const bool in_label_set = fixture.labels.ClassOf(delivered[i].mode) >= 0;
    EXPECT_EQ(delivered_class[i] >= 0, in_label_set) << "segment " << i;
    if (delivered_class[i] >= 0) evaluated.push_back(delivered_class[i]);
  }
  EXPECT_EQ(evaluated, report->y_pred);
}

// With no tick and no trainer there is no barrier before end of stream,
// but the replay still drains and delivers once 1024 segments
// (kMaxPendingSegments in replay.cc) have closed since the last drain, so
// no segment waits for the end and at most 1024 wait at once.
TEST(ReplayTest, PendingBoundDeliversWithoutBarriers) {
  constexpr size_t kMaxPending = 1024;
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ServingPlaneOptions plane_options;
  plane_options.session.min_points = 2;
  plane_options.session.max_segment_points = 4;
  ServingPlane plane(&registry, plane_options);
  size_t total_points = 0;
  for (const traj::Trajectory& trajectory : fixture.corpus) {
    total_points += trajectory.points.size();
  }
  size_t deliveries = 0;
  size_t first_delivery_points = 0;
  size_t first_delivery_closed = 0;
  size_t max_waiting = 0;
  ReplayOptions options;
  options.closed_sink = [&](const ClosedSegment&, int) {
    const SessionManagerStats stats = plane.session_stats();
    if (deliveries == 0) {
      first_delivery_points = stats.points_ingested;
      first_delivery_closed = stats.segments_emitted;
    }
    max_waiting = std::max(max_waiting, stats.segments_emitted - deliveries);
    ++deliveries;
  };
  const auto report =
      ReplayCorpus(fixture.corpus, fixture.labels, plane, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_GT(report->segments_closed, 2 * kMaxPending);
  EXPECT_EQ(deliveries, report->segments_closed);
  // One fix closes at most one 4-point window here, so the first forced
  // drain comes exactly at close 1024, with most of the corpus unread.
  EXPECT_EQ(first_delivery_closed, kMaxPending);
  EXPECT_LT(first_delivery_points, total_points / 2);
  EXPECT_EQ(max_waiting, kMaxPending);
}

// The k-way merge feeds the sessions the fixes in (timestamp, trajectory
// index) order: the same closes as one SessionManager fed a stable sort of
// all fixes by that key. The corpus has timestamps shared across users, a
// trajectory that ends early, an empty one, mode changes and a 4-point
// window, so ties, exhausted cursors and every close path are exercised.
TEST(ReplayTest, MergeOrderMatchesStableSortedFeed) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  struct Spec {
    int user;
    size_t points;
    double start;
    double step;
  };
  // Users 3 and 1 share every timestamp; user 2 stops after six fixes;
  // user 7 has none; user 5 lands on every other timestamp of 3 and 1;
  // users 4 and 9 interleave with all of them.
  const std::vector<Spec> specs = {
      {3, 40, 0.0, 10.0}, {4, 50, 3.0, 7.0}, {1, 40, 0.0, 10.0},
      {2, 6, 0.0, 10.0},  {7, 0, 0.0, 10.0}, {9, 120, 1.0, 3.0},
      {5, 30, 0.0, 5.0}};
  std::vector<traj::Trajectory> corpus;
  for (const Spec& spec : specs) {
    traj::Trajectory trajectory;
    trajectory.user_id = spec.user;
    for (size_t i = 0; i < spec.points; ++i) {
      const double k = static_cast<double>(i);
      traj::TrajectoryPoint point;
      point.pos = {39.9 + 0.0001 * k * spec.user, 116.4 + 0.0002 * k};
      point.timestamp = 1000.0 + spec.start + spec.step * k;
      point.mode = (i / 14) % 2 == 0 ? traj::Mode::kWalk : traj::Mode::kBike;
      trajectory.points.push_back(point);
    }
    corpus.push_back(std::move(trajectory));
  }

  ServingPlaneOptions plane_options;
  plane_options.session.min_points = 2;
  plane_options.session.max_segment_points = 4;
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  ServingPlane plane(&registry, plane_options);
  std::vector<ClosedSegment> replayed;
  ReplayOptions options;
  options.closed_sink = [&](const ClosedSegment& segment, int) {
    replayed.push_back(segment);
  };
  const auto report =
      ReplayCorpus(corpus, fixture.labels, plane, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  struct Fix {
    double timestamp;
    size_t trajectory;
    int user;
    traj::TrajectoryPoint point;
  };
  std::vector<Fix> fixes;
  for (size_t t = 0; t < corpus.size(); ++t) {
    for (const traj::TrajectoryPoint& point : corpus[t].points) {
      fixes.push_back({point.timestamp, t, corpus[t].user_id, point});
    }
  }
  std::stable_sort(fixes.begin(), fixes.end(),
                   [](const Fix& a, const Fix& b) {
                     if (a.timestamp != b.timestamp) {
                       return a.timestamp < b.timestamp;
                     }
                     return a.trajectory < b.trajectory;
                   });
  SessionManager sessions(plane_options.session);
  std::vector<ClosedSegment> expected;
  for (const Fix& fix : fixes) sessions.Ingest(fix.user, fix.point, &expected);
  sessions.FlushAll(&expected);

  EXPECT_EQ(report->points, fixes.size());
  ASSERT_EQ(replayed.size(), expected.size());
  ASSERT_GT(expected.size(), 20u);
  bool mode_change = false;
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("close " + std::to_string(i));
    EXPECT_EQ(replayed[i].session_id, expected[i].session_id);
    EXPECT_EQ(replayed[i].start_time, expected[i].start_time);
    EXPECT_EQ(replayed[i].end_time, expected[i].end_time);
    EXPECT_EQ(replayed[i].num_points, expected[i].num_points);
    EXPECT_EQ(replayed[i].reason, expected[i].reason);
    mode_change |= expected[i].reason == CloseReason::kModeChange;
  }
  EXPECT_TRUE(mode_change);
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

// Non-finite timestamps do not reorder the merge: each such fix takes its
// trajectory's previous merge key, and the session layer drops it.
// Replaying two walks carrying a +inf and a NaN fix closes exactly the
// segments of the same corpus without those fixes.
TEST(ReplayTest, NonFiniteTimestampsKeepMergeOrder) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  std::vector<traj::Trajectory> clean(2);
  for (size_t t = 0; t < clean.size(); ++t) {
    clean[t].user_id = static_cast<int>(t) + 1;
    for (size_t i = 0; i < 40; ++i) {
      const double k = static_cast<double>(i);
      traj::TrajectoryPoint point;
      point.pos = {39.9 + 0.0001 * k, 116.4 + 0.0002 * k * clean[t].user_id};
      point.timestamp = 1000.0 + 5.0 * static_cast<double>(t) + 10.0 * k;
      point.mode = traj::Mode::kWalk;
      clean[t].points.push_back(point);
    }
  }
  std::vector<traj::Trajectory> hostile = clean;
  traj::TrajectoryPoint infinite = hostile[1].points[10];
  infinite.timestamp = std::numeric_limits<double>::infinity();
  hostile[1].points.insert(hostile[1].points.begin() + 11, infinite);
  traj::TrajectoryPoint nan = hostile[0].points[19];
  nan.timestamp = std::numeric_limits<double>::quiet_NaN();
  hostile[0].points.insert(hostile[0].points.begin() + 20, nan);

  const auto replay = [&](const std::vector<traj::Trajectory>& corpus,
                          std::vector<ClosedSegment>* segments) {
    ModelRegistry registry;
    EXPECT_TRUE(registry.Publish(fixture.model).ok());
    ServingPlane plane(&registry, {});
    ReplayOptions options;
    options.closed_sink = [segments](const ClosedSegment& segment, int) {
      segments->push_back(segment);
    };
    auto report = ReplayCorpus(corpus, fixture.labels, plane, options);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
  };
  std::vector<ClosedSegment> expected;
  const ReplayReport clean_report = replay(clean, &expected);
  std::vector<ClosedSegment> replayed;
  const ReplayReport hostile_report = replay(hostile, &replayed);

  EXPECT_EQ(hostile_report.session_stats.points_dropped_invalid, 2u);
  EXPECT_EQ(clean_report.session_stats.points_dropped_invalid, 0u);
  ASSERT_EQ(expected.size(), 2u);
  ASSERT_EQ(replayed.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("segment " + std::to_string(i));
    EXPECT_EQ(replayed[i].session_id, expected[i].session_id);
    EXPECT_EQ(replayed[i].num_points, 40u);
    EXPECT_EQ(replayed[i].num_points, expected[i].num_points);
    EXPECT_EQ(replayed[i].reason, expected[i].reason);
    ExpectBitIdentical(replayed[i].features, expected[i].features);
  }
}

// Adversarial GPS streams through the whole replay path, interleaved in
// one corpus: runs of duplicate timestamps, teleport jumps between fixes
// about 500 km apart, one-point trajectories and a 1,000,000-fix
// single-mode, single-day session. At 1 and 4 shards every closed segment
// is accounted for, every delivered 70-vector is finite, the predictions
// and the sink's close order agree, and the duplicate and teleport streams
// close into exactly the offline segmenter's segments, memcmp-equal.
TEST(ReplayTest, AdversarialStreamsAccountForEverySegment) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  constexpr int64_t kDuplicateUser = 1;
  constexpr int64_t kTeleportUser = 2;
  constexpr int64_t kMillionUser = 9;
  constexpr size_t kMillion = 1000000;
  const double day_start = 14000.0 * 86400.0;
  const auto fix = [](double lat, double lon, double t, traj::Mode mode) {
    traj::TrajectoryPoint point;
    point.pos = {lat, lon};
    point.timestamp = t;
    point.mode = mode;
    return point;
  };

  // Runs of about four fixes sharing a timestamp, two in three of them
  // moving, in mode blocks that include an unlabeled one, one outside the
  // label set and one too short to keep.
  traj::Trajectory duplicates;
  duplicates.user_id = kDuplicateUser;
  {
    Rng rng(29);
    double t = day_start + 3600.0;
    double lat = 39.9, lon = 116.3;
    const std::pair<traj::Mode, size_t> blocks[] = {
        {traj::Mode::kWalk, 60},    {traj::Mode::kBus, 45},
        {traj::Mode::kUnknown, 30}, {traj::Mode::kBike, 6},
        {traj::Mode::kAirplane, 25}, {traj::Mode::kWalk, 40}};
    for (const auto& [mode, n] : blocks) {
      for (size_t i = 0; i < n; ++i) {
        duplicates.points.push_back(fix(lat, lon, t, mode));
        if (rng.NextBounded(3) != 0) {
          lat += rng.Gaussian(0.0, 1e-4);
          lon += rng.Gaussian(0.0, 1e-4);
        }
        if (rng.NextBounded(4) == 0) t += rng.Uniform(1.0, 30.0);
      }
    }
  }
  // Every other fix 4.5 degrees (about 500 km) north: valid positions,
  // absurd speeds.
  traj::Trajectory teleports;
  teleports.user_id = kTeleportUser;
  for (size_t i = 0; i < 120; ++i) {
    const double k = static_cast<double>(i);
    teleports.points.push_back(
        fix(i % 2 == 0 ? 39.9 : 44.4, 116.3 + 1e-4 * k,
            day_start + 3605.0 + 10.0 * k,
            i < 60 ? traj::Mode::kBus : traj::Mode::kTrain));
  }
  // 50,000 s of 20 Hz driving, all inside one UTC day.
  traj::Trajectory million;
  million.user_id = kMillionUser;
  million.points.reserve(kMillion);
  for (size_t i = 0; i < kMillion; ++i) {
    const double k = static_cast<double>(i);
    million.points.push_back(
        fix(39.9 + 2e-7 * k, 116.3 + 1e-3 * std::sin(1e-3 * k),
            day_start + 3600.0 + 0.05 * k, traj::Mode::kCar));
  }
  std::vector<traj::Trajectory> corpus;
  corpus.push_back(std::move(million));
  corpus.push_back(duplicates);
  for (int user = 3; user <= 6; ++user) {
    traj::Trajectory single;
    single.user_id = user;
    single.points.push_back(fix(39.9, 116.3, day_start + 3600.0 + 700.0 * user,
                                traj::Mode::kWalk));
    corpus.push_back(single);
  }
  corpus.push_back(teleports);

  struct Run {
    ReplayReport report;
    // Sink-observed close order: (session, start, points, reason, class).
    std::vector<std::tuple<int64_t, double, size_t, CloseReason, int>> closes;
    // The delivered vectors of the duplicate and teleport users.
    std::map<int64_t, std::vector<std::vector<double>>> features;
    size_t non_finite = 0;
  };
  const auto run = [&](size_t shards) {
    ModelRegistry registry;
    EXPECT_TRUE(registry.Publish(fixture.model).ok());
    ServingPlaneOptions plane_options;
    plane_options.shards = shards;
    ServingPlane plane(&registry, plane_options);
    Run result;
    ReplayOptions options;
    options.closed_sink = [&result](const ClosedSegment& segment,
                                    int predicted) {
      result.closes.emplace_back(segment.session_id, segment.start_time,
                                 segment.num_points, segment.reason,
                                 predicted);
      EXPECT_EQ(segment.features.size(), traj::kNumTrajectoryFeatures);
      for (const double value : segment.features) {
        if (!std::isfinite(value)) ++result.non_finite;
      }
      if (segment.session_id == kDuplicateUser ||
          segment.session_id == kTeleportUser) {
        result.features[segment.session_id].push_back(segment.features);
      }
    };
    auto report = ReplayCorpus(corpus, fixture.labels, plane, options);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    result.report = std::move(report).value();
    return result;
  };

  const traj::TrajectoryFeatureExtractor extractor;
  const Run one = run(1);
  const Run four = run(4);
  for (const Run* result : {&one, &four}) {
    const ReplayReport& report = result->report;
    SCOPED_TRACE(result == &one ? "1 shard" : "4 shards");
    EXPECT_EQ(report.points, kMillion + duplicates.points.size() +
                                 teleports.points.size() + 4);
    EXPECT_EQ(report.segments_closed,
              report.segments_evaluated + report.segments_outside_label_set +
                  report.shed + report.deadline_exceeded);
    EXPECT_EQ(result->closes.size(), report.segments_closed);
    EXPECT_GT(report.segments_outside_label_set, 0u);
    // The four one-point users and the six-fix bike block.
    EXPECT_EQ(report.session_stats.segments_discarded_short, 5u);
    EXPECT_EQ(report.session_stats.segments_discarded_unlabeled, 1u);
    EXPECT_EQ(result->non_finite, 0u);
    const auto million_closes = std::count_if(
        result->closes.begin(), result->closes.end(), [](const auto& close) {
          return std::get<0>(close) == kMillionUser &&
                 std::get<2>(close) == kMillion &&
                 std::get<3>(close) == CloseReason::kFlush;
        });
    EXPECT_EQ(million_closes, 1);

    for (const traj::Trajectory* stream : {&duplicates, &teleports}) {
      SCOPED_TRACE("user " + std::to_string(stream->user_id));
      const std::vector<traj::Segment> offline =
          traj::SegmentTrajectory(*stream, traj::SegmentationOptions{});
      const auto it = result->features.find(stream->user_id);
      ASSERT_NE(it, result->features.end());
      ASSERT_EQ(it->second.size(), offline.size());
      for (size_t s = 0; s < offline.size(); ++s) {
        const auto expected = extractor.Extract(offline[s]);
        ASSERT_TRUE(expected.ok());
        ExpectBitIdentical(it->second[s], expected.value());
      }
    }
  }
  EXPECT_EQ(four.report.y_true, one.report.y_true);
  EXPECT_EQ(four.report.y_pred, one.report.y_pred);
  EXPECT_EQ(four.closes, one.closes);
}

// ------------------------------------------------ Counter publishing --

uint64_t RegistryCounter(const std::string& name) {
  const obs::Counter* counter =
      obs::MetricsRegistry::Global().FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

std::string ShardCounterName(size_t shard, const char* name) {
  return "serve.shard" + std::to_string(shard) + "." + name;
}

// Every registry counter a plane with `shards` shards publishes, by name:
// the aggregates and the serve.shard<i>.* mirrors.
std::vector<std::string> PublishedNames(size_t shards) {
  std::vector<std::string> names;
  const auto add = [&](const auto& counts) {
    for (const auto& count : counts) {
      if (count.scope != CounterScope::kShard) {
        names.push_back(std::string("serve.") + count.name);
      }
      if (count.scope == CounterScope::kAggregate) continue;
      for (size_t s = 0; s < shards; ++s) {
        names.push_back(ShardCounterName(s, count.name));
      }
    }
  };
  SessionManagerStats session_stats;
  BatchPredictor::Counters predictor_counters;
  add(SessionCounts(session_stats));
  add(PredictorCounts(predictor_counters));
  return names;
}

std::map<std::string, uint64_t> RegistrySnapshot(
    const std::vector<std::string>& names) {
  std::map<std::string, uint64_t> values;
  for (const std::string& name : names) values[name] = RegistryCounter(name);
  return values;
}

// Each count table names every counted field of its stats struct exactly
// once: a field missing from the table would be neither published nor
// summed by session_stats() / predictor_counters().
TEST(ServingPlaneTest, CountTablesNameEveryCountedStatOnce) {
  SessionManagerStats session;
  session.points_ingested = 1;
  session.points_dropped_invalid = 2;
  session.points_dropped_out_of_order = 3;
  session.segments_emitted = 4;
  session.segments_discarded_short = 5;
  session.segments_discarded_unlabeled = 6;
  for (size_t r = 0; r < kNumCloseReasons; ++r) session.closed[r] = 7 + r;
  std::multiset<size_t> seen;
  std::set<std::string> names;
  for (const auto& count : SessionCounts(session)) {
    seen.insert(*count.value);
    names.insert(count.name);
  }
  std::multiset<size_t> want;
  for (size_t v = 1; v < 7 + kNumCloseReasons; ++v) want.insert(v);
  EXPECT_EQ(seen, want);
  for (size_t r = 0; r < kNumCloseReasons; ++r) {
    EXPECT_EQ(names.count("sessions.closed." +
                          std::string(CloseReasonToString(
                              static_cast<CloseReason>(r)))),
              1u);
  }

  BatchPredictor::Counters predictor;
  predictor.requests = 1;
  predictor.shed = 2;
  predictor.shed_queue_full = 3;
  predictor.shed_preempted = 4;
  predictor.deadline_exceeded = 5;
  predictor.degraded = 6;
  predictor.degraded_previous_model = 7;
  predictor.degraded_majority_class = 8;
  predictor.unavailable = 9;
  seen.clear();
  for (const auto& count : PredictorCounts(predictor)) {
    seen.insert(*count.value);
  }
  EXPECT_EQ(seen, (std::multiset<size_t>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

// A SessionManager or BatchPredictor on its own counts only into its own
// stats: the serving counters in the registry have one writer, the
// plane's publish.
TEST(ServingPlaneTest, ComponentsWriteNoCounters) {
  const ReplayFixture& fixture = ReplayFixture::Get();
  const std::vector<std::string> names = PublishedNames(16);
  const std::map<std::string, uint64_t> before = RegistrySnapshot(names);

  SessionOptions session_options;
  session_options.max_segment_points = 32;
  SessionManager sessions(session_options);
  std::vector<ClosedSegment> closed;
  for (const traj::Trajectory& trajectory : fixture.corpus) {
    for (const traj::TrajectoryPoint& point : trajectory.points) {
      sessions.Ingest(trajectory.user_id, point, &closed);
    }
  }
  sessions.FlushAll(&closed);
  EXPECT_GT(sessions.stats().segments_emitted, 0u);

  // No model anywhere plus a label prior: every answer is degraded.
  ModelRegistry empty;
  FaultSpec spec;
  spec.predict_fail_p = 0.5;
  spec.seed = 3;
  FaultInjector injector(spec);
  BatchPredictorOptions batching;
  batching.fault_injector = &injector;
  batching.label_prior.assign(fixture.labels.num_classes(), 1.0);
  batching.max_queue = 4;
  batching.shard = 0;
  {
    BatchPredictor predictor(&empty, batching);
    std::vector<std::future<Result<Prediction>>> futures;
    for (size_t r = 0; r < 64; ++r) {
      RequestContext context = r % 8 == 0
                                   ? RequestContext::WithTimeout(-1.0)
                                   : RequestContext();
      context.priority = static_cast<int>(r % 3);
      futures.push_back(
          predictor.Submit(PredictRequest(
              FixtureRow(r % fixture.dataset.num_samples()), context)));
    }
    predictor.Flush();
    for (auto& future : futures) future.wait();
    const BatchPredictor::Counters counters = predictor.counters();
    EXPECT_GT(counters.requests, 0u);
    EXPECT_GT(counters.deadline_exceeded, 0u);
    EXPECT_GT(counters.degraded_majority_class, 0u);
  }

  EXPECT_EQ(RegistrySnapshot(names), before);
}

// At every telemetry tick, each published counter has gained exactly the
// plane's summed plain stat since the plane was built, and the shard
// mirrors partition it. The chaos configuration makes the shed, degraded,
// deadline and retry counts move too.
void ExpectRegistryEqualsPlaneStatsAtEveryTick(size_t shards) {
  SCOPED_TRACE("shards=" + std::to_string(shards));
  const ReplayFixture& fixture = ReplayFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(fixture.model).ok());
  FaultSpec spec;
  spec.swap_stall_p = 0.2;
  spec.predict_fail_p = 0.3;
  spec.batch_delay_p = 0.2;
  spec.batch_delay_latency_ms = 1.0;
  spec.seed = 5;
  FaultInjector injector(spec);
  ServingPlaneOptions plane_options;
  plane_options.shards = shards;
  plane_options.session.max_segment_points = 32;
  plane_options.batching.fault_injector = &injector;
  plane_options.batching.max_queue = 4;
  plane_options.batching.label_prior.assign(fixture.labels.num_classes(),
                                            1.0);
  ServingPlane plane(&registry, plane_options);
  const std::map<std::string, uint64_t> before =
      RegistrySnapshot(PublishedNames(shards));

  const auto expect_published = [&](const auto& counts) {
    for (const auto& count : counts) {
      SCOPED_TRACE(count.name);
      const uint64_t total = *count.value;
      if (count.scope != CounterScope::kShard) {
        const std::string name = std::string("serve.") + count.name;
        EXPECT_EQ(RegistryCounter(name) - before.at(name), total);
      }
      if (count.scope == CounterScope::kAggregate) continue;
      uint64_t mirrored = 0;
      for (size_t s = 0; s < shards; ++s) {
        const std::string name = ShardCounterName(s, count.name);
        mirrored += RegistryCounter(name) - before.at(name);
      }
      EXPECT_EQ(mirrored, total);
    }
  };
  size_t ticks = 0;
  size_t moved = 0;
  ReplayOptions options;
  options.deadline_seconds = 0.25;
  options.retry_budget = 1;
  options.retry.initial_backoff_seconds = 0.0005;
  options.retry.max_backoff_seconds = 0.001;
  options.tick_every_segments = 16;
  options.tick = [&] {
    SCOPED_TRACE("tick " + std::to_string(ticks));
    const SessionManagerStats session = plane.session_stats();
    const BatchPredictor::Counters predictor = plane.predictor_counters();
    expect_published(SessionCounts(session));
    expect_published(PredictorCounts(predictor));
    moved = predictor.shed + predictor.degraded + predictor.unavailable;
    ++ticks;
  };
  const auto report =
      ReplayCorpus(fixture.corpus, fixture.labels, plane, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(ticks, 10u);
  EXPECT_GT(moved, 0u);
}

TEST(ReplayTest, RegistryCountersEqualPlaneStatsAtEveryTick) {
  ExpectRegistryEqualsPlaneStatsAtEveryTick(1);
  ExpectRegistryEqualsPlaneStatsAtEveryTick(4);
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

TEST(StatuszTest, FlatFormLineShowsTheActiveModelsNodeCount) {
  // Activation exports the compiled form's node count to the global
  // registry; the page shows it from the first activation on.
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(ReplayFixture::Get().model).ok());
  const std::shared_ptr<const ServingModel> active = registry.Acquire().active;
  ASSERT_NE(active, nullptr);
  ASSERT_NE(active->forest.flat(), nullptr);
  obs::RequestTracer tracer;
  const std::string page =
      RenderStatusPage(obs::MetricsRegistry::Global(), tracer);
  EXPECT_NE(page.find("  flat_form: compiled (" +
                      std::to_string(active->forest.flat()->num_nodes()) +
                      " nodes)\n"),
            std::string::npos)
      << page;
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
