#ifndef TRAJKIT_TRAJ_TYPES_H_
#define TRAJKIT_TRAJ_TYPES_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "geo/geodesy.h"

namespace trajkit::traj {

/// The eleven transportation modes annotated in GeoLife, plus kUnknown for
/// unlabelled points. Enumerator order is stable and used as the canonical
/// class index where no label-set mapping is applied.
enum class Mode : uint8_t {
  kUnknown = 0,
  kWalk,
  kBike,
  kBus,
  kCar,
  kTaxi,
  kSubway,
  kTrain,
  kAirplane,
  kBoat,
  kRun,
  kMotorcycle,
};

/// Number of distinct enumerators in Mode (including kUnknown).
inline constexpr int kNumModes = 12;

/// Canonical lower-case name ("walk", "bus", ...).
std::string_view ModeToString(Mode mode);

/// Parses a mode name as spelled in GeoLife labels.txt (case-insensitive;
/// accepts "motorcycle"/"motorbike" and "run"/"running" variants).
Result<Mode> ModeFromString(std::string_view name);

/// All labelled modes (everything except kUnknown), in enum order.
const std::vector<Mode>& AllLabeledModes();

/// One GPS fix: a WGS-84 position, a timestamp, and the annotated mode
/// (kUnknown when the fix falls outside every labelled interval).
struct TrajectoryPoint {
  geo::LatLon pos;
  /// Seconds since the Unix epoch (fractional seconds allowed).
  double timestamp = 0.0;
  Mode mode = Mode::kUnknown;
};

/// A raw trajectory: one user's time-ordered fixes. The paper's τ.
struct Trajectory {
  int user_id = 0;
  std::vector<TrajectoryPoint> points;
};

/// A sub-trajectory produced by segmentation: a maximal run of points from
/// one user, one (local) day, and one transportation mode. The paper's S.
struct Segment {
  int user_id = 0;
  /// Day index = floor(first timestamp / 86400).
  int64_t day = 0;
  Mode mode = Mode::kUnknown;
  std::vector<TrajectoryPoint> points;
};

/// True when `timestamp` has a day index: it is finite and
/// floor(timestamp / 86400) lies in [-2^63, 2^63), the range int64_t holds
/// (|timestamp| up to about 7.9e23 s). NaN fails both comparisons.
inline bool HasDayIndex(double timestamp) {
  const double day = std::floor(timestamp / 86400.0);
  return day >= -0x1p63 && day < 0x1p63;
}

/// Day index of a timestamp (UTC days since epoch). Defined only where
/// HasDayIndex(timestamp) holds: outside it the conversion to int64_t is
/// undefined behaviour, so a caller fed untrusted timestamps checks first.
inline int64_t DayIndex(double timestamp) {
  return static_cast<int64_t>(std::floor(timestamp / 86400.0));
}

}  // namespace trajkit::traj

#endif  // TRAJKIT_TRAJ_TYPES_H_
