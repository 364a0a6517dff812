#include "traj/types.h"

#include "common/strings.h"

namespace trajkit::traj {

std::string_view ModeToString(Mode mode) {
  switch (mode) {
    case Mode::kUnknown:
      return "unknown";
    case Mode::kWalk:
      return "walk";
    case Mode::kBike:
      return "bike";
    case Mode::kBus:
      return "bus";
    case Mode::kCar:
      return "car";
    case Mode::kTaxi:
      return "taxi";
    case Mode::kSubway:
      return "subway";
    case Mode::kTrain:
      return "train";
    case Mode::kAirplane:
      return "airplane";
    case Mode::kBoat:
      return "boat";
    case Mode::kRun:
      return "run";
    case Mode::kMotorcycle:
      return "motorcycle";
  }
  return "unknown";
}

Result<Mode> ModeFromString(std::string_view name) {
  const std::string lower = ToLowerAscii(StripWhitespace(name));
  if (lower == "walk") return Mode::kWalk;
  if (lower == "bike") return Mode::kBike;
  if (lower == "bus") return Mode::kBus;
  if (lower == "car") return Mode::kCar;
  if (lower == "taxi") return Mode::kTaxi;
  if (lower == "subway") return Mode::kSubway;
  if (lower == "train") return Mode::kTrain;
  if (lower == "airplane" || lower == "plane") return Mode::kAirplane;
  if (lower == "boat") return Mode::kBoat;
  if (lower == "run" || lower == "running") return Mode::kRun;
  if (lower == "motorcycle" || lower == "motorbike") return Mode::kMotorcycle;
  return Status::InvalidArgument("unknown transportation mode: '" +
                                 std::string(name) + "'");
}

const std::vector<Mode>& AllLabeledModes() {
  static const std::vector<Mode>* const kModes = new std::vector<Mode>{
      Mode::kWalk,     Mode::kBike,  Mode::kBus,  Mode::kCar,
      Mode::kTaxi,     Mode::kSubway, Mode::kTrain, Mode::kAirplane,
      Mode::kBoat,     Mode::kRun,   Mode::kMotorcycle};
  return *kModes;
}

}  // namespace trajkit::traj
