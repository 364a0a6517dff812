#include "serve/streaming_features.h"

#include "geo/geodesy.h"

namespace trajkit::serve {

void StreamingFeatureExtractor::Add(const traj::TrajectoryPoint& point) {
  const geo::LatTrig trig = geo::LatitudeTrig(point.pos.lat_deg);
  if (num_points_ == 0) {
    last_point_ = point;
    last_trig_ = trig;
    num_points_ = 1;
    return;
  }

  double dt = point.timestamp - last_point_.timestamp;
  if (dt < options_.min_duration_seconds) dt = options_.min_duration_seconds;
  const geo::Leg leg =
      geo::LegBetween(last_point_.pos, last_trig_, point.pos, trig);
  const double distance = leg.distance_m;
  const double speed = distance / dt;
  const double bearing = leg.bearing_deg;

  // The batch kernel backfills index 0 with copies of index 1 *between* its
  // passes, so the derived channels at index 1 are computed against their
  // own value (yielding exact zeros). Replicating that: when this is the
  // second point, every "previous" operand is the current value itself.
  const bool second = num_points_ == 1;
  const double prev_speed = second ? speed : features_.speed.back();
  const double prev_bearing = second ? bearing : features_.bearing.back();
  const double acceleration = (speed - prev_speed) / dt;
  const double bearing_diff =
      options_.wrap_bearing_difference
          ? geo::BearingDifferenceDeg(prev_bearing, bearing)
          : bearing - prev_bearing;
  const double bearing_rate = bearing_diff / dt;
  const double prev_acceleration =
      second ? acceleration : features_.acceleration.back();
  const double prev_bearing_rate =
      second ? bearing_rate : features_.bearing_rate.back();
  const double jerk = (acceleration - prev_acceleration) / dt;
  const double bearing_rate_rate = (bearing_rate - prev_bearing_rate) / dt;

  // On the second point the index-0 copies are appended too, so the buffers
  // stay index-aligned with ComputePointFeatures' arrays.
  const int copies = second ? 2 : 1;
  for (int c = 0; c < copies; ++c) {
    features_.duration.push_back(dt);
    features_.distance.push_back(distance);
    features_.speed.push_back(speed);
    features_.acceleration.push_back(acceleration);
    features_.jerk.push_back(jerk);
    features_.bearing.push_back(bearing);
    features_.bearing_rate.push_back(bearing_rate);
    features_.bearing_rate_rate.push_back(bearing_rate_rate);
  }

  last_point_ = point;
  last_trig_ = trig;
  ++num_points_;
}

Result<std::vector<double>> StreamingFeatureExtractor::Flush() const {
  if (num_points_ < 2) {
    return Status::InvalidArgument(
        "open segment must have at least 2 points to extract features");
  }
  const traj::TrajectoryFeatureExtractor extractor(options_);
  return extractor.ExtractFromPointFeatures(features_);
}

void StreamingFeatureExtractor::Reset() {
  num_points_ = 0;
  // clear(), not reassignment: the buffers keep their capacity for the
  // session's next segment.
  features_.duration.clear();
  features_.distance.clear();
  features_.speed.clear();
  features_.acceleration.clear();
  features_.jerk.clear();
  features_.bearing.clear();
  features_.bearing_rate.clear();
  features_.bearing_rate_rate.clear();
}

}  // namespace trajkit::serve
