#include "traj/point_features.h"

#include <array>

#include "common/check.h"

namespace trajkit::traj {

PointLeg ComputeLeg(const TrajectoryPoint& a, const geo::LatTrig& a_trig,
                    const TrajectoryPoint& b, const geo::LatTrig& b_trig,
                    const PointFeatureOptions& options) {
  const double dt = b.timestamp - a.timestamp;
  const geo::Leg leg = geo::LegBetween(a.pos, a_trig, b.pos, b_trig);
  return {dt < options.min_duration_seconds ? options.min_duration_seconds
                                            : dt,
          leg.distance_m, leg.bearing_deg};
}

void DerivePointFeatures(const PointFeatureOptions& options,
                         PointFeatures* features) {
  PointFeatures& f = *features;
  const size_t n = f.duration.size();
  TRAJKIT_CHECK_GE(n, 2u);
  TRAJKIT_CHECK_EQ(f.distance.size(), n);
  TRAJKIT_CHECK_EQ(f.bearing.size(), n);
  f.speed.resize(n);
  f.acceleration.resize(n);
  f.jerk.resize(n);
  f.bearing_rate.resize(n);
  f.bearing_rate_rate.resize(n);

  // One stride-1 loop per channel: the libm calls stay in the leg step, and
  // every derivative chain here is a pure subtract/divide loop over
  // materialized columns, the shape compilers auto-vectorize. Index 0 is
  // backfilled between the passes, so each channel's index-1 derivative is
  // taken against its own value ("we assume the speed of the first
  // trajectory point is equal to the speed of the second", §3.2).
  for (size_t i = 1; i < n; ++i) {
    f.speed[i] = f.distance[i] / f.duration[i];
  }
  f.duration[0] = f.duration[1];
  f.distance[0] = f.distance[1];
  f.speed[0] = f.speed[1];
  f.bearing[0] = f.bearing[1];

  for (size_t i = 1; i < n; ++i) {
    f.acceleration[i] = (f.speed[i] - f.speed[i - 1]) / f.duration[i];
  }
  if (options.wrap_bearing_difference) {
    // Wrapping calls into fmod; its own loop keeps the pure loops clean.
    for (size_t i = 1; i < n; ++i) {
      f.bearing_rate[i] =
          geo::BearingDifferenceDeg(f.bearing[i - 1], f.bearing[i]) /
          f.duration[i];
    }
  } else {
    for (size_t i = 1; i < n; ++i) {
      f.bearing_rate[i] = (f.bearing[i] - f.bearing[i - 1]) / f.duration[i];
    }
  }
  f.acceleration[0] = f.acceleration[1];
  f.bearing_rate[0] = f.bearing_rate[1];

  for (size_t i = 1; i < n; ++i) {
    f.jerk[i] = (f.acceleration[i] - f.acceleration[i - 1]) / f.duration[i];
  }
  for (size_t i = 1; i < n; ++i) {
    f.bearing_rate_rate[i] =
        (f.bearing_rate[i] - f.bearing_rate[i - 1]) / f.duration[i];
  }
  f.jerk[0] = f.jerk[1];
  f.bearing_rate_rate[0] = f.bearing_rate_rate[1];
}

PointFeatures ComputePointFeatures(std::span<const TrajectoryPoint> points,
                                   const PointFeatureOptions& options) {
  TRAJKIT_CHECK_GE(points.size(), 2u);
  const size_t n = points.size();
  // All eight columns are allocated up front, in declaration order, which
  // makes DerivePointFeatures' resizes no-ops here. Allocating the derived
  // columns in a second round fragmented the heap of a parallel dataset
  // build: bench/e2e's peak_rss_mb read 0.4-1.3 MB higher.
  PointFeatures f;
  f.duration.resize(n);
  f.distance.resize(n);
  f.speed.resize(n);
  f.acceleration.resize(n);
  f.jerk.resize(n);
  f.bearing.resize(n);
  f.bearing_rate.resize(n);
  f.bearing_rate_rate.resize(n);
  // Each fix's latitude trig is computed once and shared by its two legs.
  geo::LatTrig prev_trig = geo::LatitudeTrig(points[0].pos.lat_deg);
  for (size_t i = 1; i < n; ++i) {
    const geo::LatTrig trig = geo::LatitudeTrig(points[i].pos.lat_deg);
    const PointLeg leg =
        ComputeLeg(points[i - 1], prev_trig, points[i], trig, options);
    f.duration[i] = leg.duration;
    f.distance[i] = leg.distance;
    f.bearing[i] = leg.bearing;
    prev_trig = trig;
  }
  DerivePointFeatures(options, &f);
  return f;
}

std::span<const std::string_view> ChannelNames() {
  static constexpr std::array<std::string_view, kNumFeatureChannels> kNames = {
      "distance", "speed",        "acceleration",     "jerk",
      "bearing",  "bearing_rate", "bearing_rate_rate"};
  return kNames;
}

std::span<const double> ChannelValues(const PointFeatures& features,
                                      int channel) {
  switch (channel) {
    case 0:
      return features.distance;
    case 1:
      return features.speed;
    case 2:
      return features.acceleration;
    case 3:
      return features.jerk;
    case 4:
      return features.bearing;
    case 5:
      return features.bearing_rate;
    case 6:
      return features.bearing_rate_rate;
    default:
      break;
  }
  TRAJKIT_CHECK(false) << "channel index out of range:" << channel;
  return features.speed;  // Unreachable.
}

}  // namespace trajkit::traj
