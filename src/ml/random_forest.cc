#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ml/flat_forest.h"
#include "obs/trace.h"

namespace trajkit::ml {

namespace {

/// Forest-level instrumentation: fit/predict wall-time histograms plus a
/// rows-predicted counter, resolved once (handles are registry-stable).
struct ForestMetrics {
  obs::Histogram& fit_seconds;
  obs::Histogram& predict_seconds;
  obs::Counter& rows_predicted;

  static ForestMetrics& Get() {
    static ForestMetrics* metrics = new ForestMetrics{
        obs::MetricsRegistry::Global().GetHistogram(
            "ml.random_forest.fit_seconds",
            obs::HistogramOptions::DurationSeconds()),
        obs::MetricsRegistry::Global().GetHistogram(
            "ml.random_forest.predict_seconds",
            obs::HistogramOptions::LatencySeconds()),
        obs::MetricsRegistry::Global().GetCounter(
            "ml.random_forest.rows_predicted"),
    };
    return *metrics;
  }
};

}  // namespace

RandomForest::RandomForest(RandomForestParams params) : params_(params) {}

Status RandomForest::Fit(const Dataset& train) {
  const obs::ScopedTimer timer(ForestMetrics::Get().fit_seconds);
  if (train.num_samples() == 0) {
    return Status::InvalidArgument("cannot fit a forest on an empty dataset");
  }
  if (params_.n_estimators <= 0) {
    return Status::InvalidArgument("n_estimators must be positive");
  }
  num_classes_ = train.num_classes();
  trees_.clear();
  flat_.reset();  // A failed refit leaves an unfitted forest.
  importances_.assign(train.num_features(), 0.0);
  // One rank table serves every tree: a bootstrap reweights rows but
  // never changes a value. The trees only read it.
  TRAJKIT_ASSIGN_OR_RETURN(const ColumnRanks ranks,
                           ColumnRanks::Build(train.features()));

  int max_features = params_.max_features;
  if (max_features <= 0) {
    max_features = std::max(
        1, static_cast<int>(std::lround(
               std::sqrt(static_cast<double>(train.num_features())))));
  }

  // Derive every tree's seed and bootstrap weights up front, consuming the
  // forest RNG in the exact order a serial fit would. Tree builds then only
  // touch per-tree state, so they can run on any number of threads while
  // producing bit-identical forests (the determinism contract of
  // common/parallel.h).
  Rng rng(params_.seed);
  const size_t n = train.num_samples();
  const size_t num_trees = static_cast<size_t>(params_.n_estimators);
  std::vector<DecisionTree> trees;
  trees.reserve(num_trees);
  std::vector<std::vector<double>> bootstrap_weights(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    DecisionTreeParams tree_params;
    tree_params.criterion = params_.criterion;
    tree_params.max_depth = params_.max_depth;
    tree_params.min_samples_split = params_.min_samples_split;
    tree_params.min_samples_leaf = params_.min_samples_leaf;
    tree_params.max_features = max_features;
    tree_params.balanced_class_weights = params_.balanced_class_weights;
    tree_params.seed = rng.NextUint64();
    trees.emplace_back(tree_params);
    if (params_.bootstrap) {
      // Bootstrap as integer sample weights: equivalent to resampling and
      // avoids materializing a copied dataset per tree.
      bootstrap_weights[t].assign(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        bootstrap_weights[t][rng.NextBounded(n)] += 1.0;
      }
    }
  }

  std::vector<Status> tree_status(num_trees);
  TRAJKIT_RETURN_IF_ERROR(ParallelFor(0, num_trees, 1, [&](size_t t) {
    tree_status[t] = trees[t].FitWeighted(train, bootstrap_weights[t], ranks);
  }));
  for (const Status& status : tree_status) {
    TRAJKIT_RETURN_IF_ERROR(status);
  }

  // Merge importances in tree-index order so the floating-point summation
  // order is independent of scheduling.
  for (const DecisionTree& tree : trees) {
    const std::vector<double>& tree_importances = tree.FeatureImportances();
    for (size_t f = 0; f < importances_.size(); ++f) {
      importances_[f] += tree_importances[f];
    }
  }
  trees_ = std::move(trees);
  const double total =
      std::accumulate(importances_.begin(), importances_.end(), 0.0);
  if (total > 0.0) {
    for (double& v : importances_) v /= total;
  }
  return CompileTrees();
}

Status RandomForest::CompileTrees() {
  TRAJKIT_ASSIGN_OR_RETURN(FlatForest flat, FlatForest::Compile(*this));
  flat_ = std::make_shared<const FlatForest>(std::move(flat));
  return Status::Ok();
}

std::vector<int> RandomForest::Predict(const Matrix& features) const {
  TRAJKIT_CHECK(fitted());
  // Tiny predicts (the online per-request path) skip the timer: two clock
  // reads + an observe are measurable against a ~1µs single-row predict,
  // and the serving latency histogram already covers that path end-to-end.
  ForestMetrics& metrics = ForestMetrics::Get();
  metrics.rows_predicted.Increment(features.rows());
  std::optional<obs::ScopedTimer> timer;
  if (features.rows() >= 64) timer.emplace(metrics.predict_seconds);
  return flat_->Predict(features);
}

Result<Matrix> RandomForest::PredictProba(const Matrix& features) const {
  if (!fitted()) {
    return Status::FailedPrecondition("PredictProba before Fit");
  }
  return flat_->PredictProba(features);
}

Status RandomForest::PredictWithProba(const Matrix& features,
                                      std::vector<int>* labels,
                                      Matrix* probabilities) const {
  if (!fitted()) {
    return Status::FailedPrecondition("PredictWithProba before Fit");
  }
  // Same instrumentation as Predict: the rows count once, and only
  // batches worth a clock read are timed.
  ForestMetrics& metrics = ForestMetrics::Get();
  metrics.rows_predicted.Increment(features.rows());
  std::optional<obs::ScopedTimer> timer;
  if (features.rows() >= 64) timer.emplace(metrics.predict_seconds);
  labels->resize(features.rows());
  probabilities->Resize(features.rows(), static_cast<size_t>(num_classes_));
  flat_->PredictWithProba(features, *labels,
                          probabilities->mutable_data());
  return Status::Ok();
}

std::unique_ptr<Classifier> RandomForest::Clone() const {
  return std::make_unique<RandomForest>(params_);
}

const std::vector<double>& RandomForest::FeatureImportances() const {
  TRAJKIT_CHECK(fitted());
  return importances_;
}

std::vector<int> RandomForest::ImportanceRanking() const {
  TRAJKIT_CHECK(fitted());
  std::vector<int> order(importances_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return importances_[static_cast<size_t>(a)] >
           importances_[static_cast<size_t>(b)];
  });
  return order;
}

}  // namespace trajkit::ml
