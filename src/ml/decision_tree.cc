#include "ml/decision_tree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/strings.h"

namespace trajkit::ml {

namespace {

double ImpurityFromCounts(const std::vector<double>& counts, double total,
                          SplitCriterion criterion) {
  if (total <= 0.0) return 0.0;
  if (criterion == SplitCriterion::kGini) {
    double sum_sq = 0.0;
    for (double c : counts) {
      const double p = c / total;
      sum_sq += p * p;
    }
    return 1.0 - sum_sq;
  }
  double entropy = 0.0;
  for (double c : counts) {
    if (c <= 0.0) continue;
    const double p = c / total;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

// A node's split search sorts (rank << 32 | row) keys: the rank orders,
// the row finds the label, weight and original value.
uint32_t RankOf(uint64_t key) { return static_cast<uint32_t>(key >> 32); }
uint32_t RowOf(uint64_t key) { return static_cast<uint32_t>(key); }

// Integer weights summing below 2^53 add exactly in any order.
constexpr double kExactIntegerSum = 9007199254740992.0;

// How far a boundary's Gini bound must fall below the best decrease before
// the boundary is skipped. Both forms of the decrease sum terms in [0, 1]
// with a few roundings per class, so below kGiniBoundMaxClasses classes
// each is within 1e-10 of the true value.
constexpr double kGiniBoundMargin = 1e-9;
constexpr size_t kGiniBoundMaxClasses = 100000;

}  // namespace

Result<ColumnRanks> ColumnRanks::Build(const Matrix& x) {
  if (x.rows() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(StrPrintf(
        "%zu training rows exceed the split search's 32-bit row index",
        x.rows()));
  }
  ColumnRanks table;
  table.rows_ = x.rows();
  table.cols_ = x.cols();
  table.ranks_.resize(x.rows() * x.cols());
  std::vector<double> values(x.rows());
  std::vector<uint32_t> order(x.rows());
  for (size_t c = 0; c < x.cols(); ++c) {
    for (size_t r = 0; r < x.rows(); ++r) {
      values[r] = x(r, c);
      if (!std::isfinite(values[r])) {
        return Status::InvalidArgument(StrPrintf(
            "non-finite feature value %g at row %zu, column %zu", values[r],
            r, c));
      }
    }
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return values[a] < values[b];
    });
    uint32_t* column = table.ranks_.data() + c * x.rows();
    uint32_t rank = 0;
    for (size_t i = 0; i < order.size(); ++i) {
      if (i > 0 && values[order[i]] != values[order[i - 1]]) ++rank;
      column[order[i]] = rank;
    }
  }
  return table;
}

/// What every node of one fit reads.
struct DecisionTree::FitInputs {
  const Matrix& x;
  const ColumnRanks& ranks;
  const std::vector<int>& y;
  const std::vector<double>& w;
  /// Every weight is an integer and their total is below 2^53, so every
  /// split-search sum is exact whatever the order of rows within a tie.
  bool integer_weights;
};

/// Per-fit scratch buffers shared by every BuildNode call: a node fully
/// re-fills each buffer it uses before recursing, so reusing them across
/// nodes (and letting children overwrite them) is safe and removes the
/// per-node allocation churn. `keys` and `radix` hold one slot per
/// training row; the radix passes swap them.
struct DecisionTree::BuildScratch {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> radix;
  std::vector<double> counts;
  std::vector<double> left_counts;
  std::vector<int> candidates;

  /// Sorts keys[0, n) by rank with stable LSD passes of 8 bits over
  /// rank - lo (at most `span`), skipping a pass whose digit is the same
  /// for every key. The order within a tie is the gather order.
  void RadixSortByRank(size_t n, uint32_t lo, uint32_t span) {
    int passes = 0;
    for (uint32_t rest = span; rest != 0; rest >>= 8) ++passes;
    std::array<std::array<uint32_t, 256>, 4> histograms;
    for (int p = 0; p < passes; ++p) histograms[p].fill(0);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t digits = RankOf(keys[i]) - lo;
      for (int p = 0; p < passes; ++p) {
        ++histograms[p][(digits >> (8 * p)) & 0xFF];
      }
    }
    for (int p = 0; p < passes; ++p) {
      const int shift = 8 * p;
      std::array<uint32_t, 256>& offsets = histograms[p];
      if (offsets[((RankOf(keys[0]) - lo) >> shift) & 0xFF] == n) continue;
      uint32_t next = 0;
      for (uint32_t& slot : offsets) {
        const uint32_t count = slot;
        slot = next;
        next += count;
      }
      for (size_t i = 0; i < n; ++i) {
        const uint64_t key = keys[i];
        radix[offsets[((RankOf(key) - lo) >> shift) & 0xFF]++] = key;
      }
      keys.swap(radix);
    }
  }
};

DecisionTree::DecisionTree(DecisionTreeParams params)
    : params_(params) {}

Status DecisionTree::Fit(const Dataset& train) {
  return FitWeighted(train, {});
}

Status DecisionTree::FitWeighted(const Dataset& train,
                                 std::span<const double> weights) {
  TRAJKIT_ASSIGN_OR_RETURN(const ColumnRanks ranks,
                           ColumnRanks::Build(train.features()));
  return FitWeighted(train, weights, ranks);
}

Status DecisionTree::FitWeighted(const Dataset& train,
                                 std::span<const double> weights,
                                 const ColumnRanks& ranks) {
  if (train.num_samples() == 0) {
    return Status::InvalidArgument("cannot fit a tree on an empty dataset");
  }
  if (!weights.empty() && weights.size() != train.num_samples()) {
    return Status::InvalidArgument("weights size != sample count");
  }
  if (ranks.rows() != train.num_samples() ||
      ranks.cols() != train.num_features()) {
    return Status::InvalidArgument("rank table shape != training matrix");
  }
  std::vector<double> w(train.num_samples(), 1.0);
  if (params_.balanced_class_weights) {
    // weight(c) = n / (k * count_c); combined multiplicatively with any
    // explicit sample weights below.
    const std::vector<size_t> counts = train.ClassCounts();
    const double n = static_cast<double>(train.num_samples());
    const double k = static_cast<double>(train.num_classes());
    for (size_t i = 0; i < w.size(); ++i) {
      const size_t c = static_cast<size_t>(train.labels()[i]);
      if (counts[c] > 0) {
        w[i] = n / (k * static_cast<double>(counts[c]));
      }
    }
  }
  if (!weights.empty()) {
    double total = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      if (weights[i] < 0.0) {
        return Status::InvalidArgument("negative sample weight");
      }
      w[i] *= weights[i];
      if (!std::isfinite(w[i])) {
        return Status::InvalidArgument(
            StrPrintf("non-finite sample weight at row %zu", i));
      }
      total += weights[i];
    }
    if (total <= 0.0) {
      return Status::InvalidArgument("all sample weights are zero");
    }
  }
  bool integer_weights = true;
  double weight_total = 0.0;
  for (const double v : w) {
    integer_weights = integer_weights && std::floor(v) == v;
    weight_total += v;
  }
  integer_weights = integer_weights && weight_total < kExactIntegerSum;

  num_classes_ = train.num_classes();
  nodes_.clear();
  leaf_distributions_.clear();
  importances_.assign(train.num_features(), 0.0);
  depth_ = 0;

  std::vector<size_t> indices(train.num_samples());
  std::iota(indices.begin(), indices.end(), 0u);
  Rng rng(params_.seed);
  BuildScratch scratch;
  scratch.keys.resize(train.num_samples());
  scratch.radix.resize(train.num_samples());
  scratch.counts.reserve(static_cast<size_t>(num_classes_));
  scratch.left_counts.reserve(static_cast<size_t>(num_classes_));
  scratch.candidates.reserve(train.num_features());
  const FitInputs in{train.features(), ranks, train.labels(), w,
                     integer_weights};
  BuildNode(in, indices, 0, indices.size(), 0, rng, scratch);

  // Normalize importances to sum 1 (when any split happened).
  const double total_importance =
      std::accumulate(importances_.begin(), importances_.end(), 0.0);
  if (total_importance > 0.0) {
    for (double& v : importances_) v /= total_importance;
  }
  return Status::Ok();
}

int DecisionTree::BuildNode(const FitInputs& in, std::vector<size_t>& indices,
                            size_t begin, size_t end, int depth, Rng& rng,
                            BuildScratch& scratch) {
  TRAJKIT_CHECK_LT(begin, end);
  depth_ = std::max(depth_, depth);
  const size_t n = end - begin;
  const size_t k = static_cast<size_t>(num_classes_);
  const std::vector<int>& y = in.y;
  const std::vector<double>& w = in.w;

  std::vector<double>& counts = scratch.counts;
  counts.assign(k, 0.0);
  double total_weight = 0.0;
  for (size_t i = begin; i < end; ++i) {
    counts[static_cast<size_t>(y[indices[i]])] += w[indices[i]];
    total_weight += w[indices[i]];
  }
  const double node_impurity =
      ImpurityFromCounts(counts, total_weight, params_.criterion);

  auto make_leaf = [&]() -> int {
    std::vector<double> dist(k, 0.0);
    if (total_weight > 0.0) {
      for (size_t c = 0; c < k; ++c) dist[c] = counts[c] / total_weight;
    }
    Node node;
    node.feature = -1;
    node.distribution = static_cast<int>(leaf_distributions_.size());
    leaf_distributions_.push_back(std::move(dist));
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size() - 1);
  };

  const bool depth_exhausted =
      params_.max_depth > 0 && depth >= params_.max_depth;
  if (depth_exhausted || n < static_cast<size_t>(params_.min_samples_split) ||
      node_impurity <= 0.0 || total_weight <= 0.0) {
    return make_leaf();
  }

  // Candidate features: all, or a random subset of max_features.
  const int num_features = static_cast<int>(in.x.cols());
  std::vector<int>& candidates = scratch.candidates;
  candidates.resize(static_cast<size_t>(num_features));
  std::iota(candidates.begin(), candidates.end(), 0);
  int num_candidates = num_features;
  if (params_.max_features > 0 && params_.max_features < num_features) {
    // Partial Fisher–Yates: the first max_features entries become a
    // uniform random subset.
    num_candidates = params_.max_features;
    for (int i = 0; i < num_candidates; ++i) {
      const int j = i + static_cast<int>(rng.NextBounded(
                            static_cast<uint64_t>(num_features - i)));
      std::swap(candidates[static_cast<size_t>(i)],
                candidates[static_cast<size_t>(j)]);
    }
  }

  struct SplitChoice {
    int feature = -1;
    double threshold = 0.0;
    double impurity_decrease = 0.0;
  };
  SplitChoice best;

  std::vector<double>& left_counts = scratch.left_counts;
  left_counts.resize(k);
  // The Gini bound below needs the sums of squared class counts exact:
  // integer counts whose squares sum below 2^53.
  const bool gini_bound = params_.criterion == SplitCriterion::kGini &&
                          in.integer_weights && k < kGiniBoundMaxClasses &&
                          total_weight * total_weight < kExactIntegerSum;
  double node_sum_sq = 0.0;
  if (gini_bound) {
    for (const double c : counts) node_sum_sq += c * c;
  }

  for (int ci = 0; ci < num_candidates; ++ci) {
    const int f = candidates[static_cast<size_t>(ci)];
    const size_t column_index = static_cast<size_t>(f);
    // The node's indices are ascending (the root's are, and stable
    // partitions keep them so), so this gather walks the column forward.
    const uint32_t* column = in.ranks.Column(column_index).data();
    uint64_t* gathered = scratch.keys.data();
    uint32_t lo = std::numeric_limits<uint32_t>::max();
    uint32_t hi = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t row = indices[begin + i];
      const uint32_t rank = column[row];
      gathered[i] = (static_cast<uint64_t>(rank) << 32) | row;
      lo = std::min(lo, rank);
      hi = std::max(hi, rank);
    }
    if (lo == hi) continue;  // Constant within this node.
    if (in.integer_weights) {
      // Exact integer sums make the order within a tie irrelevant.
      scratch.RadixSortByRank(n, lo, hi - lo);
    } else {
      // std::sort's permutation depends only on comparison outcomes, and
      // rank order is value order: this is the permutation a sort by
      // value gives, so non-integer sums accumulate in the same order.
      std::sort(gathered, gathered + n, [](uint64_t a, uint64_t b) {
        return RankOf(a) < RankOf(b);
      });
    }
    const uint64_t* sorted = scratch.keys.data();

    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    double left_weight = 0.0;
    // Sums of the squared class counts on each side, kept exactly.
    double left_sum_sq = 0.0;
    double right_sum_sq = node_sum_sq;
    // Whether non-zero weight joined the left side since the last
    // evaluated boundary. If none did, the sums, and so the decrease, are
    // bit for bit those of that boundary, which the strict `>` below
    // already took or refused. Zero-weight rows still count toward
    // left_n and still place thresholds.
    bool moved = true;
    for (size_t i = 0; i + 1 < n; ++i) {
      const size_t row = RowOf(sorted[i]);
      const double weight = w[row];
      if (weight != 0.0) {
        double& left_count = left_counts[static_cast<size_t>(y[row])];
        if (gini_bound) {
          const double right_count =
              counts[static_cast<size_t>(y[row])] - left_count;
          left_sum_sq += weight * (2.0 * left_count + weight);
          right_sum_sq -= weight * (2.0 * right_count - weight);
        }
        left_count += weight;
        left_weight += weight;
        moved = true;
      }
      if (RankOf(sorted[i]) == RankOf(sorted[i + 1])) continue;
      const size_t left_n = i + 1;
      const size_t right_n = n - left_n;
      if (left_n < static_cast<size_t>(params_.min_samples_leaf) ||
          right_n < static_cast<size_t>(params_.min_samples_leaf)) {
        continue;
      }
      if (!moved) continue;
      moved = false;
      const double right_weight = total_weight - left_weight;
      if (gini_bound && left_weight > 0.0 && right_weight > 0.0) {
        // The Gini decrease is node_impurity - 1 + (L/lw + R/rw) / total,
        // with L and R the squared-count sums. This form and the one
        // below each stay within 1e-10 of it; a boundary whose bound
        // misses the best by kGiniBoundMargin could not pass the strict
        // `>`, so its per-class evaluation is skipped and every tree stays
        // bit-identical.
        const double bound =
            node_impurity - 1.0 +
            (left_sum_sq * right_weight + right_sum_sq * left_weight) /
                (left_weight * right_weight * total_weight);
        if (bound + kGiniBoundMargin < best.impurity_decrease) continue;
      }
      double left_impurity =
          ImpurityFromCounts(left_counts, left_weight, params_.criterion);
      // Right counts derived from totals.
      double right_impurity;
      {
        double sum_metric = 0.0;
        if (params_.criterion == SplitCriterion::kGini) {
          for (size_t c = 0; c < k; ++c) {
            const double rc = counts[c] - left_counts[c];
            const double p = right_weight > 0.0 ? rc / right_weight : 0.0;
            sum_metric += p * p;
          }
          right_impurity = 1.0 - sum_metric;
        } else {
          right_impurity = 0.0;
          for (size_t c = 0; c < k; ++c) {
            const double rc = counts[c] - left_counts[c];
            if (rc <= 0.0 || right_weight <= 0.0) continue;
            const double p = rc / right_weight;
            right_impurity -= p * std::log2(p);
          }
        }
      }
      const double children_impurity =
          (left_weight * left_impurity + right_weight * right_impurity) /
          total_weight;
      const double decrease = node_impurity - children_impurity;
      if (decrease > best.impurity_decrease) {
        best.feature = f;
        best.threshold = 0.5 * (in.x(row, column_index) +
                                in.x(RowOf(sorted[i + 1]), column_index));
        best.impurity_decrease = decrease;
      }
    }
  }

  if (best.feature < 0 ||
      best.impurity_decrease < params_.min_impurity_decrease) {
    return make_leaf();
  }

  // Partition indices[begin, end) by the chosen split (stable partition so
  // builds are deterministic and children keep ascending indices).
  const size_t split_column = static_cast<size_t>(best.feature);
  const auto split = std::stable_partition(
      indices.begin() + static_cast<long>(begin),
      indices.begin() + static_cast<long>(end), [&](size_t row) {
        return in.x(row, split_column) <= best.threshold;
      });
  const size_t mid = static_cast<size_t>(split - indices.begin());
  TRAJKIT_CHECK(mid > begin && mid < end)
      << "degenerate split on feature" << best.feature;

  // Importance: weighted impurity decrease, weighted by node share.
  importances_[split_column] += total_weight * best.impurity_decrease;

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(node_index)].feature = best.feature;
  nodes_[static_cast<size_t>(node_index)].threshold = best.threshold;
  const int left =
      BuildNode(in, indices, begin, mid, depth + 1, rng, scratch);
  nodes_[static_cast<size_t>(node_index)].left = left;
  const int right = BuildNode(in, indices, mid, end, depth + 1, rng, scratch);
  nodes_[static_cast<size_t>(node_index)].right = right;
  return node_index;
}

size_t DecisionTree::FindLeaf(std::span<const double> row) const {
  TRAJKIT_CHECK(fitted());
  size_t node = 0;
  while (nodes_[node].feature >= 0) {
    const double v = row[static_cast<size_t>(nodes_[node].feature)];
    node = static_cast<size_t>(v <= nodes_[node].threshold
                                   ? nodes_[node].left
                                   : nodes_[node].right);
  }
  return node;
}

std::span<const double> DecisionTree::LeafDistribution(
    std::span<const double> row) const {
  const size_t leaf = FindLeaf(row);
  return leaf_distributions_[static_cast<size_t>(nodes_[leaf].distribution)];
}

std::vector<int> DecisionTree::Predict(const Matrix& features) const {
  std::vector<int> out(features.rows());
  for (size_t r = 0; r < features.rows(); ++r) {
    const std::span<const double> dist = LeafDistribution(features.Row(r));
    out[r] = static_cast<int>(
        std::max_element(dist.begin(), dist.end()) - dist.begin());
  }
  return out;
}

Result<Matrix> DecisionTree::PredictProba(const Matrix& features) const {
  if (!fitted()) {
    return Status::FailedPrecondition("PredictProba before Fit");
  }
  Matrix probs(features.rows(), static_cast<size_t>(num_classes_));
  for (size_t r = 0; r < features.rows(); ++r) {
    const std::span<const double> dist = LeafDistribution(features.Row(r));
    for (size_t c = 0; c < dist.size(); ++c) probs(r, c) = dist[c];
  }
  return probs;
}

std::unique_ptr<Classifier> DecisionTree::Clone() const {
  return std::make_unique<DecisionTree>(params_);
}

const std::vector<double>& DecisionTree::FeatureImportances() const {
  TRAJKIT_CHECK(fitted());
  return importances_;
}

}  // namespace trajkit::ml
