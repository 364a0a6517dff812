#ifndef TRAJKIT_TRAJ_POINT_FEATURES_H_
#define TRAJKIT_TRAJ_POINT_FEATURES_H_

#include <span>
#include <string_view>
#include <vector>

#include "geo/geodesy.h"
#include "traj/types.h"

namespace trajkit::traj {

/// Per-point feature channels of one segment, computed in the columnar
/// ("vectorized", §3.2) style: every vector has exactly points.size()
/// entries. Following the paper, the value at index 0 — undefined because
/// each feature needs a preceding point — is copied from index 1 ("we assume
/// the speed of the first trajectory point is equal to the speed of the
/// second trajectory point").
struct PointFeatures {
  /// Δt between consecutive fixes, seconds.
  std::vector<double> duration;
  /// Haversine distance between consecutive fixes, meters.
  std::vector<double> distance;
  /// speed_i = distance_i / duration_i, m/s.
  std::vector<double> speed;
  /// accel_{i} = (speed_i - speed_{i-1}) / Δt, m/s².
  std::vector<double> acceleration;
  /// jerk_{i} = (accel_i - accel_{i-1}) / Δt, m/s³.
  std::vector<double> jerk;
  /// Initial bearing from fix i-1 to fix i, degrees in [0, 360).
  std::vector<double> bearing;
  /// bearing_rate_i = wrapped(bearing_i - bearing_{i-1}) / Δt, deg/s.
  std::vector<double> bearing_rate;
  /// rate of the bearing rate, deg/s².
  std::vector<double> bearing_rate_rate;

  size_t size() const { return speed.size(); }
};

/// Options for the point-feature kernels.
struct PointFeatureOptions {
  /// Durations below this floor (duplicate or out-of-order timestamps) are
  /// clamped to it before dividing, so speed/acceleration stay finite.
  double min_duration_seconds = 0.1;
  /// When true (default), bearing differences are wrapped to (-180, 180]
  /// before dividing by Δt; when false the raw difference is used, exactly
  /// as in the Brate formula of §3.2.
  bool wrap_bearing_difference = true;
};

/// The leg channels of one fix: its duration, distance and bearing entries.
struct PointLeg {
  double duration = 0.0;
  double distance = 0.0;
  double bearing = 0.0;
};

/// Leg step: the leg from fix `a` to fix `b`, given each fix's latitude
/// trig. Δt is clamped to options.min_duration_seconds; distance and bearing
/// come from geo::LegBetween. Both ComputePointFeatures and the online
/// session layer (serve/session_manager.h) compute their legs here.
PointLeg ComputeLeg(const TrajectoryPoint& a, const geo::LatTrig& a_trig,
                    const TrajectoryPoint& b, const geo::LatTrig& b_trig,
                    const PointFeatureOptions& options);

/// Derive step: from the duration, distance and bearing columns of n >= 2
/// fixes (entries 1..n-1 set, entry 0 ignored), fills speed, acceleration,
/// jerk, bearing_rate and bearing_rate_rate, then copies index 1 to index 0
/// of every channel. The other columns are resized to n; their capacity is
/// kept, so a reused `features` allocates nothing once it is large enough.
void DerivePointFeatures(const PointFeatureOptions& options,
                         PointFeatures* features);

/// Computes all point-feature channels for a run of fixes: one ComputeLeg
/// per fix, then DerivePointFeatures.
/// Precondition: points.size() >= 2 (enforced upstream by segmentation's
/// min_points filter; single-point inputs are a programmer error).
PointFeatures ComputePointFeatures(std::span<const TrajectoryPoint> points,
                                   const PointFeatureOptions& options = {});

/// The seven point-feature channels from which the paper derives its 70
/// trajectory features ("10 statistical measures ... calculated for 7 point
/// features"): distance, speed, acceleration, jerk, bearing, bearing rate,
/// and the rate of the bearing rate. (Duration is computed as scaffolding
/// but is not a classification channel.)
inline constexpr int kNumFeatureChannels = 7;

/// Stable channel names, index-aligned with ChannelValues().
std::span<const std::string_view> ChannelNames();

/// Read-only view of channel index `channel` in [0, 7). A span (not a
/// vector reference) so consumers cannot accidentally copy a channel and
/// alternative storage layouts stay possible behind the accessor.
std::span<const double> ChannelValues(const PointFeatures& features,
                                      int channel);

}  // namespace trajkit::traj

#endif  // TRAJKIT_TRAJ_POINT_FEATURES_H_
