// Unit tests for src/traj: types, segmentation, point features, trajectory
// features, noise removal.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <span>
#include <vector>

#include "common/rng.h"
#include "geo/geodesy.h"
#include "stats/descriptive.h"
#include "traj/noise.h"
#include "traj/point_features.h"
#include "traj/segmentation.h"
#include "traj/trajectory_features.h"
#include "traj/types.h"

namespace trajkit::traj {
namespace {

// Builds a straight-line northbound run: `n` points, `dt` seconds apart,
// moving `step_m` meters per interval.
std::vector<TrajectoryPoint> StraightRun(int n, double dt, double step_m,
                                         Mode mode = Mode::kWalk,
                                         double t0 = 1000.0) {
  std::vector<TrajectoryPoint> points;
  geo::LatLon pos{39.9, 116.4};
  for (int i = 0; i < n; ++i) {
    points.push_back({pos, t0 + i * dt, mode});
    pos = geo::Destination(pos, 0.0, step_m);
  }
  return points;
}

// ----------------------------------------------------------------- Types --

TEST(TypesTest, ModeStringRoundTrip) {
  for (Mode mode : AllLabeledModes()) {
    const Result<Mode> parsed = ModeFromString(ModeToString(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), mode);
  }
}

TEST(TypesTest, ModeFromStringVariants) {
  EXPECT_EQ(ModeFromString("WALK").value(), Mode::kWalk);
  EXPECT_EQ(ModeFromString(" bike ").value(), Mode::kBike);
  EXPECT_EQ(ModeFromString("motorbike").value(), Mode::kMotorcycle);
  EXPECT_EQ(ModeFromString("running").value(), Mode::kRun);
  EXPECT_EQ(ModeFromString("plane").value(), Mode::kAirplane);
  EXPECT_FALSE(ModeFromString("teleport").ok());
  EXPECT_FALSE(ModeFromString("").ok());
}

TEST(TypesTest, AllLabeledModesExcludesUnknown) {
  EXPECT_EQ(AllLabeledModes().size(), 11u);
  for (Mode mode : AllLabeledModes()) EXPECT_NE(mode, Mode::kUnknown);
}

TEST(TypesTest, DayIndex) {
  EXPECT_EQ(DayIndex(0.0), 0);
  EXPECT_EQ(DayIndex(86399.0), 0);
  EXPECT_EQ(DayIndex(86400.0), 1);
  EXPECT_EQ(DayIndex(-1.0), -1);
}

TEST(TypesTest, HasDayIndexIsTheRangeOfInt64Days) {
  EXPECT_TRUE(HasDayIndex(0.0));
  EXPECT_TRUE(HasDayIndex(-1.2e9));
  // -2^63 days is the last representable day; 2^63 is the first that is not.
  const double first_day = -0x1p63 * 86400.0;
  EXPECT_TRUE(HasDayIndex(first_day));
  EXPECT_EQ(DayIndex(first_day), std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(HasDayIndex(0x1p63 * 86400.0));
  EXPECT_FALSE(HasDayIndex(first_day * 2.0));
  EXPECT_FALSE(HasDayIndex(1e30));
  EXPECT_FALSE(HasDayIndex(-1e300));
  EXPECT_FALSE(HasDayIndex(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(HasDayIndex(std::numeric_limits<double>::quiet_NaN()));
}

// ---------------------------------------------------------- Segmentation --

TEST(SegmentationTest, SplitsOnModeChange) {
  Trajectory trajectory;
  trajectory.user_id = 3;
  auto walk = StraightRun(12, 2.0, 3.0, Mode::kWalk, 1000.0);
  auto bus = StraightRun(15, 2.0, 15.0, Mode::kBus, 1100.0);
  trajectory.points = walk;
  trajectory.points.insert(trajectory.points.end(), bus.begin(), bus.end());

  const auto segments = SegmentTrajectory(trajectory, SegmentationOptions{});
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].mode, Mode::kWalk);
  EXPECT_EQ(segments[0].points.size(), 12u);
  EXPECT_EQ(segments[1].mode, Mode::kBus);
  EXPECT_EQ(segments[1].user_id, 3);
}

TEST(SegmentationTest, SplitsOnDayChange) {
  Trajectory trajectory;
  auto day0 = StraightRun(12, 2.0, 3.0, Mode::kWalk, 86400.0 - 12.0);
  // Crosses midnight: points span two days.
  trajectory.points = day0;
  const auto segments = SegmentTrajectory(trajectory, SegmentationOptions{});
  // Each side of midnight has < 10 points → both dropped with default
  // min_points.
  EXPECT_TRUE(segments.empty());

  SegmentationOptions options;
  options.min_points = 2;
  const auto segments2 = SegmentTrajectory(trajectory, options);
  ASSERT_EQ(segments2.size(), 2u);
  EXPECT_EQ(segments2[0].day + 1, segments2[1].day);
}

TEST(SegmentationTest, DaySplitCanBeDisabled) {
  Trajectory trajectory;
  trajectory.points = StraightRun(12, 2.0, 3.0, Mode::kWalk, 86400.0 - 12.0);
  SegmentationOptions options;
  options.split_on_day = false;
  options.min_points = 2;
  EXPECT_EQ(SegmentTrajectory(trajectory, options).size(), 1u);
}

TEST(SegmentationTest, DiscardsShortSegments) {
  Trajectory trajectory;
  trajectory.points = StraightRun(9, 2.0, 3.0);  // 9 < 10.
  EXPECT_TRUE(
      SegmentTrajectory(trajectory, SegmentationOptions{}).empty());
  trajectory.points = StraightRun(10, 2.0, 3.0);
  EXPECT_EQ(SegmentTrajectory(trajectory, SegmentationOptions{}).size(), 1u);
}

TEST(SegmentationTest, DropsUnlabeledByDefault) {
  Trajectory trajectory;
  trajectory.points = StraightRun(20, 2.0, 3.0, Mode::kUnknown);
  EXPECT_TRUE(
      SegmentTrajectory(trajectory, SegmentationOptions{}).empty());
  SegmentationOptions keep;
  keep.drop_unlabeled = false;
  EXPECT_EQ(SegmentTrajectory(trajectory, keep).size(), 1u);
}

TEST(SegmentationTest, GapSplitting) {
  Trajectory trajectory;
  auto part1 = StraightRun(12, 2.0, 3.0, Mode::kWalk, 0.0);
  auto part2 = StraightRun(12, 2.0, 3.0, Mode::kWalk, 1000.0);
  trajectory.points = part1;
  trajectory.points.insert(trajectory.points.end(), part2.begin(),
                           part2.end());
  SegmentationOptions no_gap;
  EXPECT_EQ(SegmentTrajectory(trajectory, no_gap).size(), 1u);
  SegmentationOptions with_gap;
  with_gap.max_gap_seconds = 120.0;
  EXPECT_EQ(SegmentTrajectory(trajectory, with_gap).size(), 2u);
}

TEST(SegmentationTest, DropsOutOfOrderPoints) {
  Trajectory trajectory;
  trajectory.points = StraightRun(15, 2.0, 3.0);
  // Inject a time-travelling fix.
  TrajectoryPoint bad = trajectory.points[5];
  bad.timestamp = 500.0;
  trajectory.points.insert(trajectory.points.begin() + 6, bad);
  const auto segments =
      SegmentTrajectory(trajectory, SegmentationOptions{});
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].points.size(), 15u);
}

TEST(SegmentationTest, CorpusAggregatesUsers) {
  Trajectory a;
  a.user_id = 1;
  a.points = StraightRun(12, 2.0, 3.0);
  Trajectory b;
  b.user_id = 2;
  b.points = StraightRun(12, 2.0, 3.0);
  const auto segments = SegmentCorpus({a, b}, SegmentationOptions{});
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].user_id, 1);
  EXPECT_EQ(segments[1].user_id, 2);
}

TEST(SegmentationTest, NonConsecutiveSameModeRunsStaySeparate) {
  Trajectory trajectory;
  auto walk1 = StraightRun(12, 2.0, 3.0, Mode::kWalk, 0.0);
  auto bus = StraightRun(12, 2.0, 15.0, Mode::kBus, 100.0);
  auto walk2 = StraightRun(12, 2.0, 3.0, Mode::kWalk, 200.0);
  trajectory.points = walk1;
  trajectory.points.insert(trajectory.points.end(), bus.begin(), bus.end());
  trajectory.points.insert(trajectory.points.end(), walk2.begin(),
                           walk2.end());
  const auto segments =
      SegmentTrajectory(trajectory, SegmentationOptions{});
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0].mode, Mode::kWalk);
  EXPECT_EQ(segments[1].mode, Mode::kBus);
  EXPECT_EQ(segments[2].mode, Mode::kWalk);
}

// -------------------------------------------------------- Point features --

TEST(PointFeaturesTest, ConstantSpeedStraightLine) {
  // 3 m every 2 s → 1.5 m/s, bearing 0 (north), zero accel/jerk.
  const auto points = StraightRun(20, 2.0, 3.0);
  const PointFeatures f = ComputePointFeatures(points);
  ASSERT_EQ(f.size(), 20u);
  for (size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(f.duration[i], 2.0, 1e-9);
    EXPECT_NEAR(f.distance[i], 3.0, 1e-6);
    EXPECT_NEAR(f.speed[i], 1.5, 1e-6);
    EXPECT_NEAR(f.acceleration[i], 0.0, 1e-6);
    EXPECT_NEAR(f.jerk[i], 0.0, 1e-6);
    EXPECT_NEAR(f.bearing[i], 0.0, 1e-6);
    EXPECT_NEAR(f.bearing_rate[i], 0.0, 1e-6);
    EXPECT_NEAR(f.bearing_rate_rate[i], 0.0, 1e-6);
  }
}

TEST(PointFeaturesTest, FirstPointCopiesSecond) {
  // Accelerating run: speed differs between intervals; index 0 must equal
  // index 1 for every channel (§3.2's boundary convention).
  std::vector<TrajectoryPoint> points;
  geo::LatLon pos{39.9, 116.4};
  double t = 0.0;
  for (int i = 0; i < 10; ++i) {
    points.push_back({pos, t, Mode::kCar});
    pos = geo::Destination(pos, 0.0, 5.0 + 2.0 * i);
    t += 2.0;
  }
  const PointFeatures f = ComputePointFeatures(points);
  EXPECT_DOUBLE_EQ(f.speed[0], f.speed[1]);
  EXPECT_DOUBLE_EQ(f.acceleration[0], f.acceleration[1]);
  EXPECT_DOUBLE_EQ(f.jerk[0], f.jerk[1]);
  EXPECT_DOUBLE_EQ(f.bearing[0], f.bearing[1]);
  EXPECT_DOUBLE_EQ(f.bearing_rate[0], f.bearing_rate[1]);
  EXPECT_DOUBLE_EQ(f.bearing_rate_rate[0], f.bearing_rate_rate[1]);
}

TEST(PointFeaturesTest, AccelerationOfLinearSpeedRamp) {
  // Speed increases by 1 m/s every 1 s interval → acceleration ≈ 1 m/s²,
  // jerk ≈ 0 (after the first interval).
  std::vector<TrajectoryPoint> points;
  geo::LatLon pos{39.9, 116.4};
  for (int i = 0; i < 12; ++i) {
    points.push_back({pos, static_cast<double>(i), Mode::kCar});
    pos = geo::Destination(pos, 0.0, 1.0 + i);  // Distance grows linearly.
  }
  const PointFeatures f = ComputePointFeatures(points);
  // accel[1] is 0 by the boundary convention (speed[0] copies speed[1]),
  // so acceleration is steady from index 2 and jerk from index 3.
  for (size_t i = 2; i < f.size(); ++i) {
    EXPECT_NEAR(f.acceleration[i], 1.0, 1e-4);
  }
  for (size_t i = 3; i < f.size(); ++i) {
    EXPECT_NEAR(f.jerk[i], 0.0, 1e-4);
  }
}

TEST(PointFeaturesTest, ZeroDurationClamped) {
  std::vector<TrajectoryPoint> points = StraightRun(5, 2.0, 3.0);
  points[2].timestamp = points[1].timestamp;  // Duplicate timestamp.
  const PointFeatures f = ComputePointFeatures(points);
  for (double v : f.speed) {
    EXPECT_TRUE(std::isfinite(v));
  }
  // Clamped Δt = 0.1 s → speed = 3 m / 0.1 s.
  EXPECT_NEAR(f.speed[2], 30.0, 1e-3);
}

TEST(PointFeaturesTest, BearingRateWrapsAcrossNorth) {
  // Heading goes 350° → 10°: wrapped difference is +20°, not -340°.
  std::vector<TrajectoryPoint> points;
  geo::LatLon pos{39.9, 116.4};
  points.push_back({pos, 0.0, Mode::kWalk});
  pos = geo::Destination(pos, 350.0, 10.0);
  points.push_back({pos, 1.0, Mode::kWalk});
  pos = geo::Destination(pos, 10.0, 10.0);
  points.push_back({pos, 2.0, Mode::kWalk});
  const PointFeatures f = ComputePointFeatures(points);
  EXPECT_NEAR(f.bearing_rate[2], 20.0, 0.5);

  PointFeatureOptions raw;
  raw.wrap_bearing_difference = false;
  const PointFeatures g = ComputePointFeatures(points, raw);
  EXPECT_NEAR(g.bearing_rate[2], -340.0, 0.5);
}

TEST(PointFeaturesTest, ChannelAccessorsCoverAllSeven) {
  const auto points = StraightRun(10, 2.0, 3.0);
  const PointFeatures f = ComputePointFeatures(points);
  ASSERT_EQ(ChannelNames().size(),
            static_cast<size_t>(kNumFeatureChannels));
  for (int c = 0; c < kNumFeatureChannels; ++c) {
    EXPECT_EQ(ChannelValues(f, c).size(), f.size());
  }
  EXPECT_EQ(ChannelNames()[1], "speed");
}

// --------------------------------------------------- Trajectory features --

TEST(TrajectoryFeaturesTest, Exactly70NamesAllDistinct) {
  const auto& names = TrajectoryFeatureExtractor::FeatureNames();
  ASSERT_EQ(names.size(), 70u);
  std::set<std::string> distinct(names.begin(), names.end());
  EXPECT_EQ(distinct.size(), 70u);
  EXPECT_EQ(kNumTrajectoryFeatures, 70);
}

TEST(TrajectoryFeaturesTest, FeatureIndexLookup) {
  const auto idx = TrajectoryFeatureExtractor::FeatureIndex("speed_p90");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(TrajectoryFeatureExtractor::FeatureNames()
                [static_cast<size_t>(idx.value())],
            "speed_p90");
  EXPECT_EQ(idx.value(),
            TrajectoryFeatureExtractor::IndexOf(1, Statistic::kP90));
  EXPECT_FALSE(
      TrajectoryFeatureExtractor::FeatureIndex("warp_factor").ok());
}

TEST(TrajectoryFeaturesTest, StatisticNames) {
  EXPECT_EQ(StatisticToString(Statistic::kMin), "min");
  EXPECT_EQ(StatisticToString(Statistic::kStdDev), "std");
  EXPECT_EQ(StatisticToString(Statistic::kP90), "p90");
}

TEST(TrajectoryFeaturesTest, ConstantSpeedSegmentValues) {
  Segment segment;
  segment.mode = Mode::kWalk;
  segment.points = StraightRun(30, 2.0, 3.0);
  const TrajectoryFeatureExtractor extractor;
  const auto features = extractor.Extract(segment);
  ASSERT_TRUE(features.ok());
  ASSERT_EQ(features->size(), 70u);

  const auto at = [&](std::string_view name) {
    return (*features)[static_cast<size_t>(
        TrajectoryFeatureExtractor::FeatureIndex(name).value())];
  };
  EXPECT_NEAR(at("speed_min"), 1.5, 1e-6);
  EXPECT_NEAR(at("speed_max"), 1.5, 1e-6);
  EXPECT_NEAR(at("speed_mean"), 1.5, 1e-6);
  EXPECT_NEAR(at("speed_median"), 1.5, 1e-6);
  EXPECT_NEAR(at("speed_std"), 0.0, 1e-6);
  EXPECT_NEAR(at("speed_p90"), 1.5, 1e-6);
  EXPECT_NEAR(at("acceleration_mean"), 0.0, 1e-6);
  EXPECT_NEAR(at("bearing_mean"), 0.0, 1e-6);
  EXPECT_NEAR(at("distance_mean"), 3.0, 1e-6);
}

TEST(TrajectoryFeaturesTest, MedianEqualsP50Feature) {
  Segment segment;
  segment.mode = Mode::kBike;
  Rng rng(5);
  geo::LatLon pos{39.9, 116.4};
  for (int i = 0; i < 40; ++i) {
    segment.points.push_back({pos, i * 2.0, Mode::kBike});
    pos = geo::Destination(pos, rng.Uniform(0.0, 360.0),
                           rng.Uniform(1.0, 12.0));
  }
  const TrajectoryFeatureExtractor extractor;
  const auto features = extractor.Extract(segment);
  ASSERT_TRUE(features.ok());
  for (int channel = 0; channel < kNumFeatureChannels; ++channel) {
    const double median = (*features)[static_cast<size_t>(
        TrajectoryFeatureExtractor::IndexOf(channel, Statistic::kMedian))];
    const double p50 = (*features)[static_cast<size_t>(
        TrajectoryFeatureExtractor::IndexOf(channel, Statistic::kP50))];
    EXPECT_DOUBLE_EQ(median, p50);
  }
}

TEST(TrajectoryFeaturesTest, RejectsTooShortSegment) {
  Segment segment;
  segment.points = StraightRun(1, 2.0, 3.0);
  const TrajectoryFeatureExtractor extractor;
  EXPECT_FALSE(extractor.Extract(segment).ok());
}

TEST(TrajectoryFeaturesTest, PercentilesOrderedWithinChannel) {
  Segment segment;
  segment.mode = Mode::kBus;
  Rng rng(6);
  geo::LatLon pos{39.9, 116.4};
  for (int i = 0; i < 60; ++i) {
    segment.points.push_back({pos, i * 2.0, Mode::kBus});
    pos = geo::Destination(pos, 10.0, rng.Uniform(0.0, 40.0));
  }
  const TrajectoryFeatureExtractor extractor;
  const auto features = extractor.Extract(segment);
  ASSERT_TRUE(features.ok());
  for (int channel = 0; channel < kNumFeatureChannels; ++channel) {
    const auto value = [&](Statistic s) {
      return (*features)[static_cast<size_t>(
          TrajectoryFeatureExtractor::IndexOf(channel, s))];
    };
    EXPECT_LE(value(Statistic::kMin), value(Statistic::kP10));
    EXPECT_LE(value(Statistic::kP10), value(Statistic::kP25));
    EXPECT_LE(value(Statistic::kP25), value(Statistic::kP50));
    EXPECT_LE(value(Statistic::kP50), value(Statistic::kP75));
    EXPECT_LE(value(Statistic::kP75), value(Statistic::kP90));
    EXPECT_LE(value(Statistic::kP90), value(Statistic::kMax));
  }
}

// The 70 statistics the plain way: each channel fully sorted for the
// percentiles (numpy "linear"), and stats::Min/Max/Mean/StdDev called one
// by one.
std::vector<double> ReferenceTrajectoryFeatures(const PointFeatures& f) {
  std::vector<double> out;
  for (int channel = 0; channel < kNumFeatureChannels; ++channel) {
    const std::span<const double> values = ChannelValues(f, channel);
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    const auto percentile = [&sorted](double p) {
      const double rank =
          p / 100.0 * static_cast<double>(sorted.size() - 1);
      const double lo_rank = std::floor(rank);
      const size_t lo = static_cast<size_t>(lo_rank);
      if (lo + 1 >= sorted.size()) return sorted.back();
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

// Random channels of `n` fixes. `kind` 0: Gaussian; 1: duplicate-heavy
// (a few small integers and zeros of both signs); 2: a stationary segment,
// where distance, speed and the bearing channels are zero and the rates
// mostly so.
PointFeatures RandomPointFeatures(size_t n, int kind, Rng& rng) {
  PointFeatures f;
  for (std::vector<double>* column :
       {&f.duration, &f.distance, &f.speed, &f.acceleration, &f.jerk,
        &f.bearing, &f.bearing_rate, &f.bearing_rate_rate}) {
    column->resize(n);
    for (double& x : *column) {
      switch (kind) {
        case 0:
          x = rng.Gaussian(0.0, 10.0);
          break;
        case 1: {
          const uint64_t pick = rng.NextBounded(8);
          x = pick == 0   ? -0.0
              : pick == 1 ? 0.0
                          : static_cast<double>(pick % 3);
          break;
        }
        default:
          x = rng.NextBounded(16) == 0 ? rng.Gaussian(0.0, 1e-3) : 0.0;
          break;
      }
    }
  }
  if (kind == 2) {
    std::fill(f.distance.begin(), f.distance.end(), 0.0);
    std::fill(f.speed.begin(), f.speed.end(), 0.0);
    std::fill(f.bearing.begin(), f.bearing.end(), 0.0);
  }
  return f;
}

TEST(TrajectoryFeaturesTest, ExtractionBitIdenticalToFullSortReference) {
  std::vector<size_t> sizes;
  for (size_t n = 2; n <= 200; ++n) sizes.push_back(n);
  for (const size_t n : {584u, 1000u, 5000u}) sizes.push_back(n);
  Rng rng(2019);
  const TrajectoryFeatureExtractor extractor;
  for (const size_t n : sizes) {
    for (int kind = 0; kind < 3; ++kind) {
      const PointFeatures f = RandomPointFeatures(n, kind, rng);
      const std::vector<double> got = extractor.ExtractFromPointFeatures(f);
      const std::vector<double> expected = ReferenceTrajectoryFeatures(f);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::memcmp(&got[i], &expected[i], sizeof(double)), 0)
            << TrajectoryFeatureExtractor::FeatureNames()[i] << " n=" << n
            << " kind=" << kind << " got=" << got[i]
            << " expected=" << expected[i];
      }
    }
  }
  // Real kernels too: a walk with a stationary stretch in the middle.
  for (const size_t n : {2u, 37u, 584u, 1000u}) {
    std::vector<TrajectoryPoint> points = StraightRun(
        static_cast<int>(n), 2.0, 3.0);
    for (size_t i = n / 3; i < 2 * n / 3; ++i) {
      points[i].pos = points[n / 3].pos;
    }
    const PointFeatures f = ComputePointFeatures(points);
    EXPECT_EQ(std::memcmp(extractor.ExtractFromPointFeatures(f).data(),
                          ReferenceTrajectoryFeatures(f).data(),
                          kNumTrajectoryFeatures * sizeof(double)),
              0)
        << "walk n=" << n;
  }
}

// ----------------------------------------------------------------- Noise --

TEST(NoiseTest, RemovesSpeedOutlier) {
  Segment segment;
  segment.mode = Mode::kWalk;
  segment.points = StraightRun(20, 2.0, 3.0);
  // Teleport one fix 5 km east.
  segment.points[10].pos =
      geo::Destination(segment.points[10].pos, 90.0, 5000.0);
  NoiseRemovalOptions options;
  options.median_window = 1;  // Isolate the outlier pass.
  const NoiseRemovalStats stats = RemoveNoise(segment, options);
  EXPECT_EQ(stats.outliers_removed, 1u);
  EXPECT_EQ(segment.points.size(), 19u);
}

TEST(NoiseTest, AirplaneExemptFromSpeedFilter) {
  Segment segment;
  segment.mode = Mode::kAirplane;
  segment.points = StraightRun(20, 2.0, 400.0, Mode::kAirplane);  // 200 m/s.
  NoiseRemovalOptions options;
  options.median_window = 1;
  const NoiseRemovalStats stats = RemoveNoise(segment, options);
  EXPECT_EQ(stats.outliers_removed, 0u);
  EXPECT_EQ(segment.points.size(), 20u);
}

TEST(NoiseTest, MedianFilterSmoothsSpike) {
  Segment segment;
  segment.mode = Mode::kWalk;
  segment.points = StraightRun(20, 2.0, 3.0);
  const geo::LatLon original = segment.points[10].pos;
  // Small lateral spike (not large enough for the speed filter).
  segment.points[10].pos = geo::Destination(original, 90.0, 30.0);
  NoiseRemovalOptions options;
  options.max_speed_mps = 1e9;  // Isolate the median pass.
  options.median_window = 3;
  RemoveNoise(segment, options);
  // The spike collapses back towards the line.
  EXPECT_LT(geo::HaversineMeters(segment.points[10].pos, original), 5.0);
}

TEST(NoiseTest, RejectsPassRemovingTooMuch) {
  Segment segment;
  segment.mode = Mode::kWalk;
  // Alternating teleports: the filter would drop > half the points.
  geo::LatLon a{39.9, 116.4};
  geo::LatLon far = geo::Destination(a, 90.0, 10000.0);
  for (int i = 0; i < 20; ++i) {
    segment.points.push_back({i % 2 == 0 ? a : far, i * 2.0, Mode::kWalk});
  }
  NoiseRemovalOptions options;
  options.median_window = 1;
  options.max_outlier_fraction = 0.2;
  const NoiseRemovalStats stats = RemoveNoise(segment, options);
  EXPECT_EQ(stats.outliers_removed, 0u);  // Pass rejected.
  EXPECT_EQ(segment.points.size(), 20u);
}

TEST(NoiseTest, CorpusDropsSegmentsBelowMinPoints) {
  Segment good;
  good.mode = Mode::kWalk;
  good.points = StraightRun(20, 2.0, 3.0);
  Segment borderline;
  borderline.mode = Mode::kWalk;
  borderline.points = StraightRun(11, 2.0, 3.0);
  // Two outliers knock it below 10 points.
  borderline.points[4].pos =
      geo::Destination(borderline.points[4].pos, 90.0, 5000.0);
  borderline.points[7].pos =
      geo::Destination(borderline.points[7].pos, 90.0, 5000.0);
  std::vector<Segment> segments = {good, borderline};
  NoiseRemovalOptions options;
  options.median_window = 1;
  RemoveNoiseFromCorpus(segments, options, 10);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].points.size(), 20u);
}

TEST(NoiseTest, TinySegmentsReturnedUnchanged) {
  Segment segment;
  segment.mode = Mode::kWalk;
  segment.points = StraightRun(2, 2.0, 3.0);
  const NoiseRemovalStats stats = RemoveNoise(segment);
  EXPECT_EQ(stats.points_in, 2u);
  EXPECT_EQ(stats.points_out, 2u);
}

}  // namespace
}  // namespace trajkit::traj
