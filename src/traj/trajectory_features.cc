#include "traj/trajectory_features.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "stats/descriptive.h"

namespace trajkit::traj {

namespace {

constexpr std::array<std::string_view, kNumStatistics> kStatNames = {
    "min", "max", "mean", "median", "std", "p10", "p25", "p50", "p75", "p90"};

constexpr std::array<double, 5> kLocalPercentiles = {10.0, 25.0, 50.0, 75.0,
                                                     90.0};

}  // namespace

std::string_view StatisticToString(Statistic stat) {
  const int i = static_cast<int>(stat);
  TRAJKIT_CHECK_GE(i, 0);
  TRAJKIT_CHECK_LT(i, kNumStatistics);
  return kStatNames[static_cast<size_t>(i)];
}

const std::vector<std::string>& TrajectoryFeatureExtractor::FeatureNames() {
  static const std::vector<std::string>* const kNames = [] {
    auto* names = new std::vector<std::string>();
    names->reserve(kNumTrajectoryFeatures);
    for (std::string_view channel : ChannelNames()) {
      for (std::string_view stat : kStatNames) {
        names->push_back(std::string(channel) + "_" + std::string(stat));
      }
    }
    return names;
  }();
  return *kNames;
}

Result<int> TrajectoryFeatureExtractor::FeatureIndex(std::string_view name) {
  const std::vector<std::string>& names = FeatureNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return Status::NotFound("unknown trajectory feature: '" +
                          std::string(name) + "'");
}

int TrajectoryFeatureExtractor::IndexOf(int channel, Statistic stat) {
  TRAJKIT_CHECK_GE(channel, 0);
  TRAJKIT_CHECK_LT(channel, kNumFeatureChannels);
  return channel * kNumStatistics + static_cast<int>(stat);
}

Result<std::vector<double>> TrajectoryFeatureExtractor::Extract(
    const Segment& segment) const {
  if (segment.points.size() < 2) {
    return Status::InvalidArgument(
        "segment must have at least 2 points to extract features");
  }
  const PointFeatures features =
      ComputePointFeatures(segment.points, options_);
  return ExtractFromPointFeatures(features);
}

std::vector<double> TrajectoryFeatureExtractor::ExtractFromPointFeatures(
    const PointFeatures& features) const {
  std::vector<double> out;
  out.reserve(kNumTrajectoryFeatures);
  std::vector<double> scratch;  // Percentile scratch, reused across channels.
  std::array<double, kLocalPercentiles.size()> pct;
  for (int channel = 0; channel < kNumFeatureChannels; ++channel) {
    const std::span<const double> values = ChannelValues(features, channel);
    // All six order statistics (median + five local percentiles) share ONE
    // rank selection per channel: Median(v) is defined as
    // Percentile(v, 50), which is bit-identical to the p50 entry below.
    stats::PercentilesInto(values, kLocalPercentiles, scratch, pct);
    // Global features.
    out.push_back(stats::Min(values));
    out.push_back(stats::Max(values));
    out.push_back(stats::Mean(values));
    out.push_back(pct[2]);  // median
    out.push_back(stats::StdDev(values));
    // Local features (p10/p25/p50/p75/p90).
    out.insert(out.end(), pct.begin(), pct.end());
  }
  TRAJKIT_CHECK_EQ(out.size(),
                   static_cast<size_t>(kNumTrajectoryFeatures));
  return out;
}

}  // namespace trajkit::traj
