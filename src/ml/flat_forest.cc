#include "ml/flat_forest.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "common/check.h"
#include "common/parallel.h"
#include "ml/decision_tree.h"

namespace trajkit::ml {

namespace {

/// Rows per cohort in the batched kernel. 64 cursors (256 B) plus 64 row
/// pointers stay resident in L1 while a whole tree's SoA node pool streams
/// through; bigger blocks stop helping once the accumulator rows spill.
constexpr size_t kBlockRows = 64;

/// Runs fn(begin, end) over the kBlockRows-row blocks of [0, n) on the
/// shared pool; a single block runs inline. Blocks write disjoint output
/// rows and each row accumulates its leaves in tree order, so results are
/// bit-identical at any thread count and to the per-row pointer walk.
template <typename Fn>
void ForEachBlock(size_t n, const Fn& fn) {
  if (n == 0) return;
  const size_t num_blocks = (n + kBlockRows - 1) / kBlockRows;
  if (num_blocks == 1) {
    fn(0, n);
    return;
  }
  const Status status = ParallelFor(0, num_blocks, 1, [&](size_t b) {
    const size_t begin = b * kBlockRows;
    fn(begin, std::min(begin + kBlockRows, n));
  });
  TRAJKIT_CHECK(status.ok()) << status.ToString();
}

/// One block's raw vote sums, zeroed: on the stack for up to 32 classes,
/// on the heap beyond.
class BlockVotes {
 public:
  explicit BlockVotes(size_t size) : size_(size) {
    if (size > std::size(stack_)) {
      heap_.resize(size);
      data_ = heap_.data();
    }
    std::fill(data_, data_ + size, 0.0);
  }
  BlockVotes(const BlockVotes&) = delete;
  BlockVotes& operator=(const BlockVotes&) = delete;

  double* data() { return data_; }

  /// Writes each row's argmax (the first maximum, as std::max_element
  /// picks it) to out[r].
  void ArgmaxInto(size_t k, int* out) const {
    for (size_t r = 0; r < size_ / k; ++r) {
      const double* row = data_ + r * k;
      out[r] = static_cast<int>(std::max_element(row, row + k) - row);
    }
  }

 private:
  size_t size_;
  double stack_[kBlockRows * 32];
  std::vector<double> heap_;
  double* data_ = stack_;
};

/// FNV-1a over the raw double bits: deterministic across runs (no
/// pointer/seed inputs), which keeps the dedup probe order — though not the
/// table layout, which follows insertion order — reproducible.
struct DistributionHash {
  size_t operator()(const std::vector<double>& dist) const {
    uint64_t hash = 1469598103934665603ull;
    for (const double value : dist) {
      uint64_t bits;
      std::memcpy(&bits, &value, sizeof(bits));
      for (int shift = 0; shift < 64; shift += 8) {
        hash ^= (bits >> shift) & 0xffu;
        hash *= 1099511628211ull;
      }
    }
    return static_cast<size_t>(hash);
  }
};

}  // namespace

Result<FlatForest> FlatForest::Compile(const RandomForest& forest) {
  if (!forest.fitted()) {
    return Status::FailedPrecondition(
        "FlatForest::Compile requires a fitted forest");
  }
  FlatForest flat;
  flat.num_classes_ = forest.num_classes();
  flat.num_features_ = forest.FeatureImportances().size();

  size_t total_nodes = 0;
  for (const DecisionTree& tree : forest.trees()) {
    total_nodes += tree.NodeCount();
  }
  TRAJKIT_CHECK_LT(total_nodes,
                   static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  flat.feature_.reserve(total_nodes);
  flat.threshold_.reserve(total_nodes);
  flat.child_.reserve(total_nodes);
  flat.dist_offset_.reserve(total_nodes);
  flat.roots_.reserve(forest.NumTrees());
  flat.depths_.reserve(forest.NumTrees());

  // Leaves across ALL trees fold into one shared distribution table;
  // identical distributions (pure leaves are overwhelmingly common) are
  // stored once.
  std::unordered_map<std::vector<double>, int32_t, DistributionHash> dedup;
  std::vector<int32_t> bfs;
  std::vector<int32_t> pos;

  for (const DecisionTree& tree : forest.trees()) {
    const std::vector<DecisionTree::Node>& nodes = tree.nodes();
    const std::vector<std::vector<double>>& dists =
        tree.leaf_distributions();
    const int32_t base = static_cast<int32_t>(flat.feature_.size());

    // Breadth-first renumbering: children are pushed as a consecutive
    // pair, so in the flat order right = left + 1 and descent needs only
    // the left offset plus the comparison bit.
    bfs.clear();
    bfs.reserve(nodes.size());
    pos.assign(nodes.size(), -1);
    bfs.push_back(0);
    pos[0] = 0;
    for (size_t j = 0; j < bfs.size(); ++j) {
      const DecisionTree::Node& node = nodes[static_cast<size_t>(bfs[j])];
      if (node.feature >= 0) {
        pos[static_cast<size_t>(node.left)] =
            static_cast<int32_t>(bfs.size());
        bfs.push_back(node.left);
        pos[static_cast<size_t>(node.right)] =
            static_cast<int32_t>(bfs.size());
        bfs.push_back(node.right);
      }
    }
    TRAJKIT_CHECK_EQ(bfs.size(), nodes.size());

    for (size_t j = 0; j < bfs.size(); ++j) {
      const DecisionTree::Node& node = nodes[static_cast<size_t>(bfs[j])];
      const int32_t self = base + static_cast<int32_t>(j);
      if (node.feature >= 0) {
        flat.feature_.push_back(node.feature);
        flat.threshold_.push_back(node.threshold);
        flat.child_.push_back(base + pos[static_cast<size_t>(node.left)]);
        flat.dist_offset_.push_back(0);
      } else {
        const std::vector<double>& dist =
            dists[static_cast<size_t>(node.distribution)];
        const auto [it, inserted] = dedup.try_emplace(
            dist, static_cast<int32_t>(flat.dist_table_.size()));
        if (inserted) {
          flat.dist_table_.insert(flat.dist_table_.end(), dist.begin(),
                                  dist.end());
        }
        flat.feature_.push_back(-1);
        // Leaf self-loop: NaN threshold makes the comparison false for any
        // input (including NaN, matching the pointer walk's right-on-NaN),
        // so the branchless step yields (self - 1) + 1 = self.
        flat.threshold_.push_back(std::numeric_limits<double>::quiet_NaN());
        flat.child_.push_back(self - 1);
        flat.dist_offset_.push_back(it->second);
        ++flat.num_leaves_;
      }
    }
    flat.roots_.push_back(base);
    flat.depths_.push_back(tree.Depth());
  }
  flat.num_distributions_ = dedup.size();
  return flat;
}

template <typename Visit>
void FlatForest::VisitLeaves(const Matrix& features, size_t begin,
                             size_t end, Visit&& visit) const {
  const size_t block = end - begin;
  TRAJKIT_CHECK_LE(block, kBlockRows);
  const double* rows[kBlockRows];
  for (size_t r = 0; r < block; ++r) {
    rows[r] = features.Row(begin + r).data();
  }
  DescendCohorts(rows, block, visit);
}

template <typename Visit>
void FlatForest::DescendCohorts(const double* const* rows, size_t block,
                                Visit& visit) const {
  const int32_t* const feature = feature_.data();
  const double* const threshold = threshold_.data();
  const int32_t* const child = child_.data();
  const int32_t* const dist_offset = dist_offset_.data();
  const double* const table = dist_table_.data();
  // A lane is one (tree, row) descent. Small blocks take several trees per
  // cohort, so even a lone row keeps kBlockRows independent descents in
  // flight instead of one dependent chain of loads per tree.
  const size_t trees_per_cohort = kBlockRows / block;
  int32_t cursor[kBlockRows];
  const double* lane_row[kBlockRows];
  for (size_t first = 0; first < roots_.size(); first += trees_per_cohort) {
    const size_t last = std::min(first + trees_per_cohort, roots_.size());
    const size_t lanes = (last - first) * block;
    int32_t depth = 0;
    for (size_t t = first; t < last; ++t) {
      depth = std::max(depth, depths_[t]);
      for (size_t r = 0; r < block; ++r) {
        cursor[(t - first) * block + r] = roots_[t];
        lane_row[(t - first) * block + r] = rows[r];
      }
    }
    // Level-cohort descent: every lane advances one level per sweep; lanes
    // already at a leaf self-loop, so no per-lane termination test and the
    // inner loop is a straight-line gather + compare + offset add.
    for (int32_t level = 0; level < depth; ++level) {
      for (size_t l = 0; l < lanes; ++l) {
        const int32_t i = cursor[l];
        const int32_t f = feature[i];
        const double v = lane_row[l][f < 0 ? 0 : f];
        cursor[l] = child[i] + static_cast<int32_t>(!(v <= threshold[i]));
      }
    }
    // Lanes run tree-major, so each row meets its leaves in tree order.
    const int32_t* leaf = cursor;
    for (size_t t = first; t < last; ++t) {
      for (size_t r = 0; r < block; ++r) {
        visit(r, table + dist_offset[*leaf++]);
      }
    }
  }
}

std::vector<int> FlatForest::Predict(const Matrix& features) const {
  TRAJKIT_CHECK_GE(features.cols(), num_features_);
  const size_t n = features.rows();
  std::vector<int> out(n);
  const size_t k = static_cast<size_t>(num_classes_);
  ForEachBlock(n, [&](size_t begin, size_t end) {
    BlockVotes votes((end - begin) * k);
    VisitLeaves(features, begin, end, [&](size_t r, const double* dist) {
      double* v = votes.data() + r * k;
      for (size_t c = 0; c < k; ++c) v[c] += dist[c];
    });
    votes.ArgmaxInto(k, out.data() + begin);
  });
  return out;
}

Matrix FlatForest::PredictProba(const Matrix& features) const {
  TRAJKIT_CHECK_GE(features.cols(), num_features_);
  const size_t k = static_cast<size_t>(num_classes_);
  Matrix probs(features.rows(), k);
  const double inv = 1.0 / static_cast<double>(roots_.size());
  ForEachBlock(features.rows(), [&](size_t begin, size_t end) {
    // Rows are contiguous in the row-major output, so the block
    // accumulates straight into the (zero-initialized) result matrix.
    double* const block = probs.MutableRow(begin).data();
    VisitLeaves(features, begin, end, [&](size_t r, const double* dist) {
      double* p = block + r * k;
      for (size_t c = 0; c < k; ++c) p[c] += dist[c] * inv;
    });
  });
  return probs;
}

void FlatForest::PredictWithProba(const Matrix& features,
                                  std::span<int> labels,
                                  std::span<double> probabilities) const {
  TRAJKIT_CHECK_GE(features.cols(), num_features_);
  const size_t n = features.rows();
  const size_t k = static_cast<size_t>(num_classes_);
  TRAJKIT_CHECK_EQ(labels.size(), n);
  TRAJKIT_CHECK_EQ(probabilities.size(), n * k);
  const double inv = 1.0 / static_cast<double>(roots_.size());
  ForEachBlock(n, [&](size_t begin, size_t end) {
    BlockVotes votes((end - begin) * k);
    double* const block = probabilities.data() + begin * k;
    std::fill(block, block + (end - begin) * k, 0.0);
    VisitLeaves(features, begin, end, [&](size_t r, const double* dist) {
      double* v = votes.data() + r * k;
      double* p = block + r * k;
      for (size_t c = 0; c < k; ++c) {
        v[c] += dist[c];
        p[c] += dist[c] * inv;
      }
    });
    votes.ArgmaxInto(k, labels.data() + begin);
  });
}

FlatForestStats FlatForest::Stats() const {
  FlatForestStats stats;
  stats.num_trees = num_trees();
  stats.num_nodes = num_nodes();
  stats.num_leaves = num_leaves_;
  stats.shared_distributions = num_distributions_;
  return stats;
}

}  // namespace trajkit::ml
