#ifndef TRAJKIT_ML_RANDOM_FOREST_H_
#define TRAJKIT_ML_RANDOM_FOREST_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/decision_tree.h"

namespace trajkit::ml {

class FlatForest;

/// Hyper-parameters of the random forest. Defaults follow the paper's
/// §4.3 setting ("random forest classifier with 50 estimators", sklearn
/// conventions elsewhere: gini, sqrt feature subsetting, bootstrap).
struct RandomForestParams {
  int n_estimators = 50;
  SplitCriterion criterion = SplitCriterion::kGini;
  int max_depth = 0;          // Unbounded, like sklearn's default.
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  /// Features examined per node; <= 0 means round(sqrt(num_features)).
  int max_features = 0;
  bool bootstrap = true;
  /// Forwarded to every tree: reweight samples inversely to class
  /// frequency.
  bool balanced_class_weights = false;
  uint64_t seed = 42;
};

/// Bagged ensemble of CART trees with per-node feature subsetting.
/// Prediction averages the trees' leaf class distributions (sklearn's
/// soft voting) through the compiled flat form (ml/flat_forest.h), which
/// Fit and Deserialize build as their last step. Exposes mean
/// impurity-decrease feature importances — the "information theoretical
/// feature importance" ranking of §4.2.
class RandomForest final : public Classifier {
 public:
  explicit RandomForest(RandomForestParams params = {});

  Status Fit(const Dataset& train) override;
  std::vector<int> Predict(const Matrix& features) const override;
  Result<Matrix> PredictProba(const Matrix& features) const override;

  /// Predict and PredictProba in one call, bit-identical to the two, into
  /// caller-owned buffers that keep their capacity across calls: `labels`
  /// is resized to rows, `probabilities` to rows x num_classes. Every row
  /// descends every tree once (FlatForest::PredictWithProba).
  Status PredictWithProba(const Matrix& features, std::vector<int>* labels,
                          Matrix* probabilities) const;
  std::string name() const override { return "random_forest"; }
  std::unique_ptr<Classifier> Clone() const override;

  /// Mean of per-tree normalized importances; sums to ~1. Precondition:
  /// fitted.
  const std::vector<double>& FeatureImportances() const;

  /// Feature indices sorted by decreasing importance (ties broken by
  /// index). Precondition: fitted.
  std::vector<int> ImportanceRanking() const;

  size_t NumTrees() const { return trees_.size(); }
  bool fitted() const { return !trees_.empty(); }
  int num_classes() const { return num_classes_; }

  /// The fitted trees (read-only; FlatForest::Compile lowers them).
  /// Precondition: fitted.
  const std::vector<DecisionTree>& trees() const { return trees_; }

  /// The compiled inference form every prediction runs through: non-null
  /// exactly when fitted(). Copies of a forest share the immutable flat
  /// form; a refit replaces it.
  const FlatForest* flat() const { return flat_.get(); }

  /// Text serialization of the fitted forest (see model_io.h for the
  /// file-level helpers). Precondition: fitted.
  std::string Serialize() const;

  /// Parses a forest serialized by Serialize(). The restored forest
  /// predicts identically; hyper-parameters are restored for Clone().
  /// Malformed or hostile text is a ParseError (DecisionTree's
  /// DeserializeBlock validates each tree before the compile sees it).
  static Result<RandomForest> Deserialize(std::string_view text);

 private:
  /// Builds flat_ from the fitted trees; the last step of Fit and
  /// Deserialize.
  Status CompileTrees();

  RandomForestParams params_;
  int num_classes_ = 0;
  std::vector<DecisionTree> trees_;
  std::vector<double> importances_;
  std::shared_ptr<const FlatForest> flat_;
};

}  // namespace trajkit::ml

#endif  // TRAJKIT_ML_RANDOM_FOREST_H_
