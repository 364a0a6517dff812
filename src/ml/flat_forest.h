#ifndef TRAJKIT_ML_FLAT_FOREST_H_
#define TRAJKIT_ML_FLAT_FOREST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "ml/matrix.h"
#include "ml/random_forest.h"

namespace trajkit::ml {

/// Size/shape summary of a compiled forest (statusz, bench reporting).
struct FlatForestStats {
  size_t num_trees = 0;
  size_t num_nodes = 0;
  size_t num_leaves = 0;
  /// Deduplicated leaf distributions actually stored (<= num_leaves).
  size_t shared_distributions = 0;
};

/// Compiled inference form of a fitted RandomForest: every tree lowered
/// into one contiguous structure-of-arrays node pool with breadth-first
/// renumbering so an internal node's children are adjacent
/// (right = left + 1) and descent is a branchless offset computation:
///
///   next = child[i] + !(row[feature[i]] <= threshold[i])
///
/// Leaves carry threshold = NaN and child = i - 1, so the same step maps a
/// leaf back onto itself for any input (the comparison is always false) —
/// the batched kernel can advance a whole cohort of rows level by level
/// with no per-row termination test. Leaf class distributions are folded
/// into one shared, deduplicated table (`dist_offset` indexes it).
///
/// The flat form predicts bit-identically to a per-row pointer walk over
/// the trees (DecisionTree::LeafDistribution): per row, leaf distributions
/// are accumulated in tree order with the same double-precision adds, so
/// Predict/PredictProba agree with it to the last bit at any thread count.
/// tests/forest_oracle.h keeps that walk as the parity reference.
class FlatForest {
 public:
  /// Lowers a fitted forest; errors when the forest is unfitted.
  /// RandomForest::Fit and RandomForest::Deserialize call it as their last
  /// step, so every fitted forest carries its flat form.
  static Result<FlatForest> Compile(const RandomForest& forest);

  /// Soft-voting argmax per row over the raw vote sums. Parallelizes over
  /// row blocks.
  std::vector<int> Predict(const Matrix& features) const;

  /// Per-class probabilities: each tree's leaf distribution scaled by
  /// 1/num_trees and summed in tree order.
  Matrix PredictProba(const Matrix& features) const;

  /// Predict and PredictProba from one descent per row and tree: the leaf
  /// a row reaches feeds two accumulators, the raw vote sums behind the
  /// argmax label and the 1/num_trees-scaled sums of the probabilities,
  /// each with the adds of its two-call counterpart. `labels` (size rows)
  /// and `probabilities` (rows x num_classes, row-major) are therefore
  /// bit-identical to Predict and PredictProba at any thread count. Writes
  /// only into the caller's buffers; parallelizes over row blocks.
  void PredictWithProba(const Matrix& features, std::span<int> labels,
                        std::span<double> probabilities) const;

  int num_classes() const { return num_classes_; }
  size_t num_features() const { return num_features_; }
  size_t num_trees() const { return roots_.size(); }
  size_t num_nodes() const { return feature_.size(); }
  FlatForestStats Stats() const;

 private:
  FlatForest() = default;

  /// Descends every tree for rows [begin, end) of `features` (at most one
  /// 64-row block) and calls visit(r, leaf_distribution) per tree and row,
  /// r relative to `begin` — per row, leaves arrive in tree order, as in
  /// the pointer walk.
  template <typename Visit>
  void VisitLeaves(const Matrix& features, size_t begin, size_t end,
                   Visit&& visit) const;

  /// VisitLeaves' branchless level-cohort descent over `block` row
  /// pointers.
  template <typename Visit>
  void DescendCohorts(const double* const* rows, size_t block,
                      Visit& visit) const;

  // One SoA node pool across all trees, tree nodes contiguous, BFS order.
  std::vector<int32_t> feature_;      // Split feature; -1 marks a leaf.
  std::vector<double> threshold_;     // Split threshold; NaN at leaves.
  std::vector<int32_t> child_;        // Left child (right = left + 1);
                                      // self - 1 at leaves (self-loop).
  std::vector<int32_t> dist_offset_;  // Element offset into dist_table_
                                      // (leaves only; 0 at internals).
  std::vector<int32_t> roots_;        // Root node per tree.
  std::vector<int32_t> depths_;       // Max depth (edges) per tree.
  std::vector<double> dist_table_;    // Deduped leaf distributions, each
                                      // num_classes_ wide.

  int num_classes_ = 0;
  size_t num_features_ = 0;
  size_t num_leaves_ = 0;
  size_t num_distributions_ = 0;
};

}  // namespace trajkit::ml

#endif  // TRAJKIT_ML_FLAT_FOREST_H_
