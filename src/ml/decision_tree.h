#ifndef TRAJKIT_ML_DECISION_TREE_H_
#define TRAJKIT_ML_DECISION_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/classifier.h"

namespace trajkit::ml {

/// Column-major dense ranks of a training matrix: Column(c)[r] is the
/// position of x(r, c) among column c's distinct values, so rank order is
/// value order and equal doubles (-0.0 and 0.0 included) share a rank.
/// A bootstrap or a boosting round changes sample weights, never values,
/// so an ensemble builds this once and every tree's split search sorts a
/// node's rows by integer rank instead of by double.
class ColumnRanks {
 public:
  /// Sorts each column once. InvalidArgument on a NaN or infinite value
  /// (no split search is defined over them) and on a row count that does
  /// not fit the split search's 32-bit (rank, row) packing.
  static Result<ColumnRanks> Build(const Matrix& x);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  std::span<const uint32_t> Column(size_t c) const {
    return {ranks_.data() + c * rows_, rows_};
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<uint32_t> ranks_;
};

/// Hyper-parameters of the CART classification tree.
struct DecisionTreeParams {
  SplitCriterion criterion = SplitCriterion::kGini;
  /// Maximum depth; <= 0 means unbounded.
  int max_depth = 0;
  /// A node with fewer samples becomes a leaf.
  int min_samples_split = 2;
  /// Both children of an accepted split must hold at least this many
  /// samples.
  int min_samples_leaf = 1;
  /// Number of features examined per node; <= 0 means all. Random forests
  /// pass sqrt(num_features).
  int max_features = 0;
  /// Minimum weighted impurity decrease for a split to be accepted.
  double min_impurity_decrease = 1e-12;
  /// Reweight samples inversely to their class frequency (sklearn's
  /// class_weight="balanced"); useful on GeoLife's imbalanced mode mix.
  bool balanced_class_weights = false;
  uint64_t seed = 42;
};

/// CART decision tree with gini/entropy splitting, optional per-node random
/// feature subsetting (for forests) and sample weights (for AdaBoost).
/// An embedded feature-selection method in the paper's taxonomy: fitted
/// trees expose impurity-decrease feature importances.
class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeParams params = {});

  Status Fit(const Dataset& train) override;

  /// Weighted fit; `weights` must be per-sample, finite, non-negative,
  /// with at least one positive entry. Empty span = uniform. Non-finite
  /// feature values are rejected with InvalidArgument.
  Status FitWeighted(const Dataset& train, std::span<const double> weights);

  /// Same, over a rank table the caller built from `train.features()` and
  /// shares across the fits of one ensemble (read-only, so concurrent
  /// fits may share it).
  Status FitWeighted(const Dataset& train, std::span<const double> weights,
                     const ColumnRanks& ranks);

  std::vector<int> Predict(const Matrix& features) const override;
  Result<Matrix> PredictProba(const Matrix& features) const override;
  std::string name() const override { return "decision_tree"; }
  std::unique_ptr<Classifier> Clone() const override;

  /// Impurity-decrease importances over training columns; sums to 1 (or is
  /// all zeros for a single-leaf tree). Precondition: fitted.
  const std::vector<double>& FeatureImportances() const;

  /// Number of nodes (internal + leaves). Precondition: fitted.
  size_t NodeCount() const { return nodes_.size(); }
  /// Tree depth (root-only tree has depth 0). Precondition: fitted.
  int Depth() const { return depth_; }
  int num_classes() const { return num_classes_; }
  bool fitted() const { return !nodes_.empty(); }

  /// Leaf class distribution for one sample (the pointer walk behind
  /// Predict, AdaBoost's votes and the forest tests' parity oracle).
  /// Precondition: fitted.
  std::span<const double> LeafDistribution(std::span<const double> row) const;

  /// Appends a line-based text serialization of the fitted tree to `out`
  /// (see model_io.h for the file-level helpers). Precondition: fitted.
  void AppendSerialized(std::string& out) const;

  /// Parses one tree block from `lines` starting at `cursor` (advanced
  /// past the block). The inverse of AppendSerialized.
  static Result<DecisionTree> DeserializeBlock(
      const std::vector<std::string_view>& lines, size_t& cursor);

  struct Node {
    // Internal node: feature >= 0, children set. Leaf: feature == -1.
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    // Index into leaf_distributions_ for leaves.
    int distribution = -1;
  };

  /// Read access to the fitted structure for compilers of alternative
  /// inference forms (ml/flat_forest.h lowers these into an SoA pool).
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<std::vector<double>>& leaf_distributions() const {
    return leaf_distributions_;
  }

 private:
  struct FitInputs;
  struct BuildScratch;

  int BuildNode(const FitInputs& in, std::vector<size_t>& indices,
                size_t begin, size_t end, int depth, Rng& rng,
                BuildScratch& scratch);
  size_t FindLeaf(std::span<const double> row) const;

  DecisionTreeParams params_;
  int num_classes_ = 0;
  int depth_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::vector<double>> leaf_distributions_;
  std::vector<double> importances_;
};

}  // namespace trajkit::ml

#endif  // TRAJKIT_ML_DECISION_TREE_H_
