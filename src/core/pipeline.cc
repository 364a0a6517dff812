#include "core/pipeline.h"

#include "common/parallel.h"
#include "obs/trace.h"
#include "traj/point_features.h"

namespace trajkit::core {

Pipeline::Pipeline(PipelineOptions options) : options_(options) {}

Result<ml::Dataset> Pipeline::BuildDataset(
    const std::vector<traj::Trajectory>& corpus,
    const LabelSet& labels) const {
  // Stage timers share the "span/pipeline" prefix: segmentation here, then
  // the noise/extract/assemble stages in BuildFromSegments — the whole
  // 8-step run exports as the span/pipeline/* histogram family.
  obs::ScopedTimer timer("span/pipeline");
  std::vector<traj::Segment> segments;
  {
    obs::ScopedTimer segment_timer("span/pipeline/segment");
    segments = options_.strategy == SegmentationStrategy::kUserDayMode
                   ? traj::SegmentCorpus(corpus, options_.segmentation)
                   : traj::SegmentCorpusByWindows(corpus, options_.windows);
  }
  return BuildFromSegments(std::move(segments), labels);
}

std::vector<std::string> Pipeline::FeatureNames() const {
  std::vector<std::string> names =
      traj::TrajectoryFeatureExtractor::FeatureNames();
  if (options_.include_extended_features) {
    const std::vector<std::string>& extended = traj::ExtendedFeatureNames();
    names.insert(names.end(), extended.begin(), extended.end());
  }
  return names;
}

Result<ml::Dataset> Pipeline::BuildDatasetFromSegments(
    std::vector<traj::Segment> segments, const LabelSet& labels) const {
  obs::ScopedTimer timer("span/pipeline");
  return BuildFromSegments(std::move(segments), labels);
}

Result<ml::Dataset> Pipeline::BuildFromSegments(
    std::vector<traj::Segment> segments, const LabelSet& labels) const {
  stats_ = PipelineStats{};
  stats_.segments_total = segments.size();
  obs::MetricsRegistry::Global()
      .GetCounter("core.pipeline.segments_total")
      .Increment(segments.size());

  if (options_.remove_noise) {
    obs::ScopedTimer noise_timer("span/pipeline/noise");
    const int min_points =
        options_.strategy == SegmentationStrategy::kUserDayMode
            ? options_.segmentation.min_points
            : options_.windows.min_points;
    const traj::NoiseRemovalStats noise_stats = traj::RemoveNoiseFromCorpus(
        segments, options_.noise, min_points);
    stats_.outliers_removed = noise_stats.outliers_removed;
    obs::MetricsRegistry::Global()
        .GetCounter("core.pipeline.outliers_removed")
        .Increment(noise_stats.outliers_removed);
  }

  const traj::TrajectoryFeatureExtractor extractor(options_.point_features);
  traj::ExtendedFeatureOptions extended_options = options_.extended;
  extended_options.point_features = options_.point_features;
  const traj::ExtendedFeatureExtractor extended_extractor(extended_options);

  // Cheap serial pass to pick the eligible segments, then the per-segment
  // 70(+)-dim extraction — the expensive part — runs in parallel, each
  // segment writing only its own row (bit-identical at any thread count).
  struct Eligible {
    const traj::Segment* segment;
    int cls;
  };
  std::vector<Eligible> eligible;
  eligible.reserve(segments.size());
  for (const traj::Segment& segment : segments) {
    const int cls = labels.ClassOf(segment.mode);
    if (cls < 0) continue;
    if (segment.points.size() < 2) continue;
    eligible.push_back({&segment, cls});
  }

  std::vector<std::vector<double>> rows(eligible.size());
  {
    obs::ScopedTimer extract_timer("span/pipeline/extract");
    TRAJKIT_RETURN_IF_ERROR(
        ParallelFor(0, eligible.size(), 4, [&](size_t i) {
          const traj::Segment& segment = *eligible[i].segment;
          // Point features are computed once and shared by both extractors.
          const traj::PointFeatures point_features = traj::ComputePointFeatures(
              segment.points, options_.point_features);
          std::vector<double> features =
              extractor.ExtractFromPointFeatures(point_features);
          if (options_.include_extended_features) {
            const std::vector<double> extended =
                extended_extractor.ExtractFromPointFeatures(point_features,
                                                            segment.points);
            features.insert(features.end(), extended.begin(), extended.end());
          }
          rows[i] = std::move(features);
        }));
  }

  obs::ScopedTimer assemble_timer("span/pipeline/assemble");
  std::vector<int> y;
  std::vector<int> groups;
  std::vector<double> times;
  y.reserve(eligible.size());
  groups.reserve(eligible.size());
  times.reserve(eligible.size());
  for (const Eligible& item : eligible) {
    y.push_back(item.cls);
    groups.push_back(item.segment->user_id);
    times.push_back(item.segment->points.front().timestamp);
    stats_.points_total += item.segment->points.size();
  }
  stats_.segments_in_label_set = rows.size();
  obs::MetricsRegistry::Global()
      .GetCounter("core.pipeline.segments_in_label_set")
      .Increment(rows.size());
  if (rows.empty()) {
    return Status::InvalidArgument(
        "no segments matched the label set '" + labels.name() +
        "' — corpus too small or labels missing");
  }
  TRAJKIT_ASSIGN_OR_RETURN(
      ml::Dataset dataset,
      ml::Dataset::Create(ml::Matrix::FromRows(rows), std::move(y),
                          std::move(groups), FeatureNames(),
                          labels.class_names()));
  TRAJKIT_RETURN_IF_ERROR(dataset.SetTimes(std::move(times)));
  return dataset;
}

}  // namespace trajkit::core
