#ifndef TRAJKIT_ML_FLAT_FOREST_H_
#define TRAJKIT_ML_FLAT_FOREST_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "ml/matrix.h"
#include "ml/random_forest.h"

namespace trajkit::ml {

/// Options for FlatForest::Compile.
struct FlatForestOptions {
  /// Attempt int16 threshold quantization. The quantized form is accepted
  /// only when branchless descent over `exactness_reference` lands on the
  /// same leaf as the exact (double-threshold) descent for EVERY row and
  /// every tree; otherwise the compile silently keeps the exact form and
  /// records why in quantization_rejection().
  bool quantize = false;
  /// Rows the exactness check replays (normally the training features).
  /// Required — and must be non-empty — when `quantize` is set.
  const Matrix* exactness_reference = nullptr;
};

/// Reusable compile workspace: the leaf-distribution dedup table and the
/// per-tree BFS renumbering arrays keep their allocations across compiles,
/// so callers that recompile periodically (the continuous trainer lowers
/// every refit candidate) don't rebuild the maps from scratch each time.
/// Purely an allocation cache — compiled output is bit-identical with or
/// without one. Not thread-safe; use one scratch per compiling thread.
struct FlatForestScratch {
  struct DistributionHash {
    size_t operator()(const std::vector<double>& dist) const;
  };
  std::unordered_map<std::vector<double>, int32_t, DistributionHash> dedup;
  std::vector<int32_t> bfs;
  std::vector<int32_t> pos;
};

/// Size/shape summary of a compiled forest (statusz, bench reporting).
struct FlatForestStats {
  size_t num_trees = 0;
  size_t num_nodes = 0;
  size_t num_leaves = 0;
  /// Deduplicated leaf distributions actually stored (<= num_leaves).
  size_t shared_distributions = 0;
  bool quantized = false;
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
/// The flat form predicts bit-identically to the pointer walk: per row,
/// leaf distributions are accumulated in tree order with the same
/// double-precision adds, so Predict/PredictProba agree to the last bit at
/// any thread count.
///
/// Optional int16 threshold quantization (per-feature affine grids) is
/// accepted only after an exactness check proves descent parity on every
/// reference row; see FlatForestOptions.
class FlatForest {
 public:
  /// Lowers a fitted forest. Errors when the forest is unfitted or the
  /// quantization options are malformed; quantization *rejection* is not an
  /// error (the exact form is kept, see quantization_rejection()).
  static Result<FlatForest> Compile(const RandomForest& forest,
                                    const FlatForestOptions& options = {});

  /// Same compile, reusing `scratch`'s allocations (nullptr behaves like
  /// the plain overload).
  static Result<FlatForest> Compile(const RandomForest& forest,
                                    const FlatForestOptions& options,
                                    FlatForestScratch* scratch);

  /// Soft-voting argmax per row; bit-identical to RandomForest::Predict's
  /// pointer walk. Parallelizes over row blocks.
  std::vector<int> Predict(const Matrix& features) const;

  /// Per-class probabilities; bit-identical to RandomForest::PredictProba.
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

  /// Single-row reference kernel: adds `scale * leaf_distribution` over
  /// all trees into `acc` (size num_classes), in tree order, one early-exit
  /// descent at a time (tests compare the batched kernels against it).
  void AccumulateVotes(std::span<const double> row, double scale,
                       std::span<double> acc) const;

  int num_classes() const { return num_classes_; }
  size_t num_features() const { return num_features_; }
  size_t num_trees() const { return roots_.size(); }
  size_t num_nodes() const { return feature_.size(); }
  bool quantized() const { return !qthreshold_.empty(); }
  /// Non-empty when quantization was requested but failed the exactness
  /// check (names the first disagreeing row/tree).
  const std::string& quantization_rejection() const {
    return quantization_rejection_;
  }
  FlatForestStats Stats() const;

  /// Test hook: flat node index of the leaf `row` reaches in tree `tree`,
  /// via the exact or the quantized descent. Precondition: quantized()
  /// when use_quantized.
  size_t LeafIndexForTest(size_t tree, std::span<const double> row,
                          bool use_quantized) const;

  /// Dumps the compiled arrays as one raw little-endian binary image
  /// (flat-forest dump v1: header + each SoA array verbatim) — the first
  /// step toward mmap-able model loading. Creates parent directories.
  /// Round trip is bit-identical: LoadFrom(SaveTo(f)) predicts exactly
  /// like f, quantized mirror included.
  Status SaveTo(const std::string& path) const;

  /// Reads a dump written by SaveTo.
  static Result<FlatForest> LoadFrom(const std::string& path);

 private:
  FlatForest() = default;

  /// Builds the per-feature affine grids + int16 threshold mirror, then
  /// accepts them only if descent parity holds on every reference row.
  void TryQuantize(const Matrix& reference);

  /// Quantizes one full-width row into `out` (size num_features_).
  void QuantizeRow(std::span<const double> row, int16_t* out) const;

  /// Single-row descents to the leaf's flat node index.
  size_t DescendExact(size_t tree, std::span<const double> row) const;
  size_t DescendQuantized(size_t tree, const int16_t* qrow) const;

  /// Descends every tree for rows [begin, end) of `features` (at most one
  /// 64-row block) and calls visit(r, leaf_distribution) per tree and row,
  /// r relative to `begin` — per row, leaves arrive in tree order, as in
  /// the pointer walk.
  template <typename Visit>
  void VisitLeaves(const Matrix& features, size_t begin, size_t end,
                   Visit&& visit) const;

  /// VisitLeaves' branchless level-cohort descent over `block` row
  /// pointers, on the exact (T = double) or quantized (T = int16_t)
  /// thresholds.
  template <typename T, typename Visit>
  void DescendCohorts(const T* const* rows, size_t block, const T* threshold,
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

  // Quantized mirror (empty when not accepted). Per-feature affine grids:
  // q(x) = floor((x - qlo[f]) * qscale[f]) clamped to [-32767, 32766];
  // NaN maps to 32767 (always compares right, like the exact path). Leaf
  // sentinel threshold -32768 keeps the self-loop property.
  std::vector<int16_t> qthreshold_;
  std::vector<double> qlo_;
  std::vector<double> qscale_;

  int num_classes_ = 0;
  size_t num_features_ = 0;
  size_t num_leaves_ = 0;
  size_t num_distributions_ = 0;
  std::string quantization_rejection_;
};

}  // namespace trajkit::ml

#endif  // TRAJKIT_ML_FLAT_FOREST_H_
