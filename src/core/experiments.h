#ifndef TRAJKIT_CORE_EXPERIMENTS_H_
#define TRAJKIT_CORE_EXPERIMENTS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "ml/dataset.h"
#include "ml/splits.h"
#include "synthgeo/generator.h"

namespace trajkit::core {

/// The cross-validation schemes compared in §4.4.
enum class CvScheme {
  /// Conventional shuffled k-fold ("random cross-validation").
  kRandom,
  /// Stratified shuffled k-fold (random CV preserving class mix).
  kStratified,
  /// Group k-fold on user ids ("user-oriented cross-validation").
  kUserOriented,
  /// Forward-chaining temporal folds (train strictly precedes test) — the
  /// "holdout" strategy §5 names as future work. Requires
  /// Dataset::has_times(); MakeFolds falls back to kRandom otherwise.
  kTemporal,
};

/// Parses "random" / "stratified" / "user" into a scheme.
Result<CvScheme> CvSchemeFromString(std::string_view name);
std::string_view CvSchemeToString(CvScheme scheme);

/// The most folds `scheme` can cut from `dataset`: one sample per test
/// fold (one distinct user for kUserOriented), and for kTemporal on a
/// timed dataset one more sample to train the first fold on.
size_t MaxFolds(CvScheme scheme, const ml::Dataset& dataset);

/// Builds k folds of `dataset` under the scheme. Precondition:
/// 2 <= k <= MaxFolds(scheme, dataset).
std::vector<ml::FoldSplit> MakeFolds(CvScheme scheme,
                                     const ml::Dataset& dataset, int k,
                                     uint64_t seed);

/// One-call synthetic-corpus → Dataset path used by the experiment
/// harnesses and examples. Returns the dataset plus generation/pipeline
/// diagnostics.
struct SyntheticDatasetResult {
  ml::Dataset dataset;
  synthgeo::CorpusSummary corpus_summary;
  PipelineStats pipeline_stats;
};
Result<SyntheticDatasetResult> BuildSyntheticDataset(
    const synthgeo::GeneratorOptions& generator_options,
    const PipelineOptions& pipeline_options, const LabelSet& labels);

}  // namespace trajkit::core

#endif  // TRAJKIT_CORE_EXPERIMENTS_H_
