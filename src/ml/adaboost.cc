#include "ml/adaboost.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace trajkit::ml {

AdaBoost::AdaBoost(AdaBoostParams params) : params_(params) {}

Status AdaBoost::Fit(const Dataset& train) {
  if (train.num_samples() == 0) {
    return Status::InvalidArgument("cannot fit AdaBoost on an empty dataset");
  }
  if (params_.n_estimators <= 0) {
    return Status::InvalidArgument("n_estimators must be positive");
  }
  num_classes_ = train.num_classes();
  learners_.clear();
  alphas_.clear();

  const size_t n = train.num_samples();
  const double k = static_cast<double>(num_classes_);
  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  Rng rng(params_.seed);
  // The rounds reweight the same rows, so they share one rank table.
  TRAJKIT_ASSIGN_OR_RETURN(const ColumnRanks ranks,
                           ColumnRanks::Build(train.features()));

  for (int round = 0; round < params_.n_estimators; ++round) {
    DecisionTreeParams tree_params;
    tree_params.max_depth = params_.base_max_depth;
    tree_params.seed = rng.NextUint64();
    DecisionTree tree(tree_params);
    TRAJKIT_RETURN_IF_ERROR(tree.FitWeighted(train, weights, ranks));

    const std::vector<int> pred = tree.Predict(train.features());
    double err = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (pred[i] != train.labels()[i]) err += weights[i];
    }

    if (err <= 0.0) {
      // Perfect learner: keep it with a large finite weight and stop.
      learners_.push_back(std::move(tree));
      alphas_.push_back(10.0 + std::log(k - 1.0 + 1e-12));
      break;
    }
    // SAMME requires better-than-random: err < 1 - 1/K.
    if (err >= 1.0 - 1.0 / k) {
      if (learners_.empty()) {
        // Keep one learner anyway so Predict() is well defined.
        learners_.push_back(std::move(tree));
        alphas_.push_back(1e-6);
      }
      break;
    }

    const double alpha =
        params_.learning_rate *
        (std::log((1.0 - err) / err) + std::log(k - 1.0));
    for (size_t i = 0; i < n; ++i) {
      if (pred[i] != train.labels()[i]) {
        weights[i] *= std::exp(alpha);
      }
    }
    double total = 0.0;
    for (double w : weights) total += w;
    TRAJKIT_CHECK_GT(total, 0.0);
    for (double& w : weights) w /= total;

    learners_.push_back(std::move(tree));
    alphas_.push_back(alpha);
  }
  if (learners_.empty()) {
    return Status::Internal("AdaBoost produced no learners");
  }
  return Status::Ok();
}

std::vector<int> AdaBoost::Predict(const Matrix& features) const {
  TRAJKIT_CHECK(fitted());
  std::vector<int> out(features.rows());
  std::vector<double> votes(static_cast<size_t>(num_classes_));
  for (size_t r = 0; r < features.rows(); ++r) {
    std::fill(votes.begin(), votes.end(), 0.0);
    const std::span<const double> row = features.Row(r);
    for (size_t t = 0; t < learners_.size(); ++t) {
      const std::span<const double> dist =
          learners_[t].LeafDistribution(row);
      const int cls = static_cast<int>(
          std::max_element(dist.begin(), dist.end()) - dist.begin());
      votes[static_cast<size_t>(cls)] += alphas_[t];
    }
    out[r] = static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                              votes.begin());
  }
  return out;
}

Result<Matrix> AdaBoost::PredictProba(const Matrix& features) const {
  if (!fitted()) {
    return Status::FailedPrecondition("PredictProba before Fit");
  }
  // Normalized alpha votes as a probability surrogate.
  Matrix probs(features.rows(), static_cast<size_t>(num_classes_));
  double alpha_total = 0.0;
  for (double a : alphas_) alpha_total += a;
  for (size_t r = 0; r < features.rows(); ++r) {
    const std::span<const double> row = features.Row(r);
    for (size_t t = 0; t < learners_.size(); ++t) {
      const std::span<const double> dist =
          learners_[t].LeafDistribution(row);
      const int cls = static_cast<int>(
          std::max_element(dist.begin(), dist.end()) - dist.begin());
      probs(r, static_cast<size_t>(cls)) += alphas_[t] / alpha_total;
    }
  }
  return probs;
}

std::unique_ptr<Classifier> AdaBoost::Clone() const {
  return std::make_unique<AdaBoost>(params_);
}

}  // namespace trajkit::ml
