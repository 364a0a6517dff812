#ifndef TRAJKIT_CORE_PIPELINE_H_
#define TRAJKIT_CORE_PIPELINE_H_

#include <vector>

#include "common/result.h"
#include "core/label_sets.h"
#include "ml/dataset.h"
#include "traj/extended_features.h"
#include "traj/noise.h"
#include "traj/segmentation.h"
#include "traj/trajectory_features.h"
#include "traj/types.h"

namespace trajkit::core {

/// How step 1 cuts raw trajectories into classification units.
enum class SegmentationStrategy {
  /// The paper's scheme: maximal runs of (user, day, mode).
  kUserDayMode,
  /// Fixed-duration windows with majority-vote labels (the scheme of
  /// several compared works; needs no test-time mode annotations).
  kFixedWindows,
};

/// Configuration of the paper's 8-step framework (Fig. 1):
///   1 segmentation  2 point features  3 trajectory features
///   4-5 feature selection (done by the caller on the emitted Dataset)
///   6 optional noise removal  7 normalization  8 classification.
/// Normalization (7) is performed inside the cross-validation driver so
/// the scaler is fit on training folds only; the pipeline emits raw
/// features.
struct PipelineOptions {
  SegmentationStrategy strategy = SegmentationStrategy::kUserDayMode;
  traj::SegmentationOptions segmentation;
  traj::WindowSegmentationOptions windows;
  traj::PointFeatureOptions point_features;
  /// Step 6. The paper leaves it off for the headline comparisons ("we do
  /// not have access to labels of the test dataset"); the ablation bench
  /// turns it on.
  bool remove_noise = false;
  traj::NoiseRemovalOptions noise;
  /// Append the 8 Zheng-style segment-level features (extended_features.h)
  /// after the 70 statistics — the paper's future-work direction.
  bool include_extended_features = false;
  traj::ExtendedFeatureOptions extended;
};

/// Counters from one BuildDataset call.
struct PipelineStats {
  size_t segments_total = 0;     // After segmentation + min-point filter.
  size_t segments_in_label_set = 0;
  size_t points_total = 0;
  size_t outliers_removed = 0;   // Only when remove_noise.
};

/// Turns a raw GPS corpus into the 70-feature (or 78 with extended
/// features) learning problem.
class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = {});

  /// Runs steps 1–3 (+6 when enabled) and assembles a Dataset: one row per
  /// sub-trajectory whose mode is in `labels`, trajectory features, class
  /// index from `labels`, group id = user id.
  Result<ml::Dataset> BuildDataset(
      const std::vector<traj::Trajectory>& corpus,
      const LabelSet& labels) const;

  /// BuildDataset from pre-segmented data (reuses segmentation output
  /// across label sets).
  Result<ml::Dataset> BuildDatasetFromSegments(
      std::vector<traj::Segment> segments, const LabelSet& labels) const;

  /// The emitted feature names (70, or 78 with extended features).
  std::vector<std::string> FeatureNames() const;

  /// Stats of the most recent build.
  const PipelineStats& stats() const { return stats_; }

  const PipelineOptions& options() const { return options_; }

 private:
  /// Steps 2-3 (+6) and assembly, shared by both public entry points;
  /// each of them times the whole call as span/pipeline.
  Result<ml::Dataset> BuildFromSegments(std::vector<traj::Segment> segments,
                                        const LabelSet& labels) const;

  PipelineOptions options_;
  mutable PipelineStats stats_;
};

}  // namespace trajkit::core

#endif  // TRAJKIT_CORE_PIPELINE_H_
