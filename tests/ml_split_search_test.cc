// Tests of the CART split search over per-ensemble column ranks
// (ml/decision_tree.h): the ColumnRanks encoding, the rejection of
// non-finite inputs, and a parity suite that checks every fitted tree bit
// for bit against a comparison-sort oracle, a copy of the split search
// that sorted (value, weight, label) triplets by double.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/adaboost.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"

namespace trajkit::ml {
namespace {

// ------------------------------------------------------------ Oracle --

// The fitted structure the oracle produces, in DecisionTree's layout.
struct OracleTree {
  std::vector<DecisionTree::Node> nodes;
  std::vector<std::vector<double>> leaf_distributions;
  std::vector<double> importances;
  int depth = 0;
};

double OracleImpurity(const std::vector<double>& counts, double total,
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

// The split search as it was before the rank encoding: per candidate, a
// std::sort of (value, weight, label) triplets by value, then a scan of
// every boundary between distinct values.
class OracleBuilder {
 public:
  OracleBuilder(const DecisionTreeParams& params, const Matrix& x,
                const std::vector<int>& y, const std::vector<double>& w,
                int num_classes)
      : params_(params), x_(x), y_(y), w_(w), num_classes_(num_classes) {}

  int Build(std::vector<size_t>& indices, size_t begin, size_t end,
            int depth, Rng& rng, OracleTree& out) {
    out.depth = std::max(out.depth, depth);
    const size_t n = end - begin;
    const size_t k = static_cast<size_t>(num_classes_);
    std::vector<double> counts(k, 0.0);
    double total_weight = 0.0;
    for (size_t i = begin; i < end; ++i) {
      counts[static_cast<size_t>(y_[indices[i]])] += w_[indices[i]];
      total_weight += w_[indices[i]];
    }
    const double node_impurity =
        OracleImpurity(counts, total_weight, params_.criterion);
    auto make_leaf = [&]() -> int {
      std::vector<double> dist(k, 0.0);
      if (total_weight > 0.0) {
        for (size_t c = 0; c < k; ++c) dist[c] = counts[c] / total_weight;
      }
      DecisionTree::Node node;
      node.distribution = static_cast<int>(out.leaf_distributions.size());
      out.leaf_distributions.push_back(std::move(dist));
      out.nodes.push_back(node);
      return static_cast<int>(out.nodes.size() - 1);
    };
    const bool depth_exhausted =
        params_.max_depth > 0 && depth >= params_.max_depth;
    if (depth_exhausted ||
        n < static_cast<size_t>(params_.min_samples_split) ||
        node_impurity <= 0.0 || total_weight <= 0.0) {
      return make_leaf();
    }

    const int num_features = static_cast<int>(x_.cols());
    std::vector<int> candidates(static_cast<size_t>(num_features));
    std::iota(candidates.begin(), candidates.end(), 0);
    int num_candidates = num_features;
    if (params_.max_features > 0 && params_.max_features < num_features) {
      num_candidates = params_.max_features;
      for (int i = 0; i < num_candidates; ++i) {
        const int j = i + static_cast<int>(rng.NextBounded(
                              static_cast<uint64_t>(num_features - i)));
        std::swap(candidates[static_cast<size_t>(i)],
                  candidates[static_cast<size_t>(j)]);
      }
    }

    struct Sample {
      double value;
      double weight;
      int label;
    };
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_decrease = 0.0;
    std::vector<Sample> samples(n);
    std::vector<double> left_counts(k);
    for (int ci = 0; ci < num_candidates; ++ci) {
      const int f = candidates[static_cast<size_t>(ci)];
      for (size_t i = 0; i < n; ++i) {
        const size_t row = indices[begin + i];
        samples[i] = {x_(row, static_cast<size_t>(f)), w_[row], y_[row]};
      }
      std::sort(samples.begin(), samples.end(),
                [](const Sample& a, const Sample& b) {
                  return a.value < b.value;
                });
      if (samples.front().value == samples.back().value) continue;
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      double left_weight = 0.0;
      for (size_t i = 0; i + 1 < n; ++i) {
        left_counts[static_cast<size_t>(samples[i].label)] +=
            samples[i].weight;
        left_weight += samples[i].weight;
        if (samples[i].value == samples[i + 1].value) continue;
        const size_t left_n = i + 1;
        const size_t right_n = n - left_n;
        if (left_n < static_cast<size_t>(params_.min_samples_leaf) ||
            right_n < static_cast<size_t>(params_.min_samples_leaf)) {
          continue;
        }
        const double right_weight = total_weight - left_weight;
        const double left_impurity =
            OracleImpurity(left_counts, left_weight, params_.criterion);
        double right_impurity;
        if (params_.criterion == SplitCriterion::kGini) {
          double sum_metric = 0.0;
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
        const double children_impurity =
            (left_weight * left_impurity + right_weight * right_impurity) /
            total_weight;
        const double decrease = node_impurity - children_impurity;
        if (decrease > best_decrease) {
          best_feature = f;
          best_threshold = 0.5 * (samples[i].value + samples[i + 1].value);
          best_decrease = decrease;
        }
      }
    }
    if (best_feature < 0 || best_decrease < params_.min_impurity_decrease) {
      return make_leaf();
    }
    const size_t column = static_cast<size_t>(best_feature);
    std::stable_partition(indices.begin() + static_cast<long>(begin),
                          indices.begin() + static_cast<long>(end),
                          [&](size_t row) {
                            return x_(row, column) <= best_threshold;
                          });
    size_t mid = begin;
    while (mid < end && x_(indices[mid], column) <= best_threshold) ++mid;
    out.importances[column] += total_weight * best_decrease;
    const int node_index = static_cast<int>(out.nodes.size());
    out.nodes.emplace_back();
    out.nodes[static_cast<size_t>(node_index)].feature = best_feature;
    out.nodes[static_cast<size_t>(node_index)].threshold = best_threshold;
    const int left = Build(indices, begin, mid, depth + 1, rng, out);
    out.nodes[static_cast<size_t>(node_index)].left = left;
    const int right = Build(indices, mid, end, depth + 1, rng, out);
    out.nodes[static_cast<size_t>(node_index)].right = right;
    return node_index;
  }

 private:
  const DecisionTreeParams& params_;
  const Matrix& x_;
  const std::vector<int>& y_;
  const std::vector<double>& w_;
  int num_classes_;
};

OracleTree OracleFit(const Dataset& train, std::span<const double> weights,
                     const DecisionTreeParams& params) {
  std::vector<double> w(train.num_samples(), 1.0);
  if (params.balanced_class_weights) {
    const std::vector<size_t> counts = train.ClassCounts();
    const double n = static_cast<double>(train.num_samples());
    const double k = static_cast<double>(train.num_classes());
    for (size_t i = 0; i < w.size(); ++i) {
      const size_t c = static_cast<size_t>(train.labels()[i]);
      if (counts[c] > 0) w[i] = n / (k * static_cast<double>(counts[c]));
    }
  }
  for (size_t i = 0; i < weights.size(); ++i) w[i] *= weights[i];
  OracleTree out;
  out.importances.assign(train.num_features(), 0.0);
  std::vector<size_t> indices(train.num_samples());
  std::iota(indices.begin(), indices.end(), 0u);
  Rng rng(params.seed);
  OracleBuilder builder(params, train.features(), train.labels(), w,
                        train.num_classes());
  builder.Build(indices, 0, indices.size(), 0, rng, out);
  const double total =
      std::accumulate(out.importances.begin(), out.importances.end(), 0.0);
  if (total > 0.0) {
    for (double& v : out.importances) v /= total;
  }
  return out;
}

// ----------------------------------------------------------- Helpers --

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameBits(const std::vector<double>& a,
                    const std::vector<double>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i]), Bits(b[i])) << what << " [" << i << "]";
  }
}

void ExpectSameTree(const DecisionTree& tree, const OracleTree& oracle,
                    const std::string& context) {
  ASSERT_EQ(tree.nodes().size(), oracle.nodes.size()) << context;
  for (size_t i = 0; i < oracle.nodes.size(); ++i) {
    const DecisionTree::Node& got = tree.nodes()[i];
    const DecisionTree::Node& want = oracle.nodes[i];
    ASSERT_EQ(got.feature, want.feature) << context << " node " << i;
    ASSERT_EQ(Bits(got.threshold), Bits(want.threshold))
        << context << " node " << i;
    ASSERT_EQ(got.left, want.left) << context << " node " << i;
    ASSERT_EQ(got.right, want.right) << context << " node " << i;
    ASSERT_EQ(got.distribution, want.distribution)
        << context << " node " << i;
  }
  ASSERT_EQ(tree.leaf_distributions().size(),
            oracle.leaf_distributions.size())
      << context;
  for (size_t i = 0; i < oracle.leaf_distributions.size(); ++i) {
    ExpectSameBits(tree.leaf_distributions()[i],
                   oracle.leaf_distributions[i],
                   context + " leaf " + std::to_string(i));
  }
  ExpectSameBits(tree.FeatureImportances(), oracle.importances,
                 context + " importances");
  EXPECT_EQ(tree.Depth(), oracle.depth) << context;
}

// Columns cycle through shapes that stress the rank encoding: continuous
// values, values quantized to quarters (long ties), a constant, signed
// zeros mixed with +-1, and a 4-level integer code. The first two columns
// carry the label so the trees grow deep.
Dataset MakeTiedData(size_t rows, size_t cols, int classes, uint64_t seed) {
  Rng rng(seed);
  Matrix x(rows, cols);
  std::vector<int> labels(rows);
  for (size_t r = 0; r < rows; ++r) {
    // Skewed class mix, so balanced weights differ from 1.
    const int y = static_cast<int>(
        rng.NextBounded(static_cast<uint64_t>(classes) * 2)) %
        (classes + 1) % classes;
    labels[r] = y;
    for (size_t c = 0; c < cols; ++c) {
      double v = 0.0;
      switch (c % 5) {
        case 0:
          v = rng.Gaussian(0.7 * y, 1.0);
          break;
        case 1:
          v = std::round(rng.Gaussian(0.5 * y, 1.0) * 4.0) / 4.0;
          break;
        case 2:
          v = 3.25;
          break;
        case 3: {
          static constexpr double kZeros[] = {-0.0, 0.0, 1.0, -1.0, 0.0};
          v = kZeros[rng.NextBounded(5)];
          break;
        }
        default:
          v = static_cast<double>(rng.NextBounded(4));
          break;
      }
      x(r, c) = v;
    }
  }
  std::vector<std::string> class_names;
  for (int c = 0; c < classes; ++c) {
    class_names.push_back("c" + std::to_string(c));
  }
  return std::move(Dataset::Create(std::move(x), std::move(labels), {}, {},
                                   std::move(class_names)))
      .value();
}

std::vector<double> BootstrapWeights(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(n, 0.0);
  for (size_t i = 0; i < n; ++i) w[rng.NextBounded(n)] += 1.0;
  return w;
}

// AdaBoost-shaped weights: 1/n, a random third boosted by e^alpha, then
// normalized, so no weight is an integer.
std::vector<double> BoostedWeights(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(n, 1.0 / static_cast<double>(n));
  for (double& v : w) {
    if (rng.NextBounded(3) == 0) v *= std::exp(1.37);
  }
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  for (double& v : w) v /= total;
  return w;
}

// ---------------------------------------------------------- ColumnRanks --

TEST(ColumnRanksTest, DenseRanksShareTiesAndSignedZeros) {
  const Matrix x = Matrix::FromRows(
      {{2.5, 0.0}, {-1.0, -0.0}, {2.5, 7.0}, {0.5, 0.0}, {-1.0, -3.0}});
  const ColumnRanks ranks = std::move(ColumnRanks::Build(x)).value();
  ASSERT_EQ(ranks.rows(), 5u);
  ASSERT_EQ(ranks.cols(), 2u);
  const std::vector<uint32_t> first(ranks.Column(0).begin(),
                                    ranks.Column(0).end());
  const std::vector<uint32_t> second(ranks.Column(1).begin(),
                                     ranks.Column(1).end());
  EXPECT_EQ(first, (std::vector<uint32_t>{2, 0, 2, 1, 0}));
  EXPECT_EQ(second, (std::vector<uint32_t>{1, 1, 2, 1, 0}));
}

TEST(ColumnRanksTest, RejectsNonFiniteValues) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Matrix x(4, 3);
    x(2, 1) = bad;
    const Result<ColumnRanks> ranks = ColumnRanks::Build(x);
    ASSERT_FALSE(ranks.ok());
    EXPECT_EQ(ranks.status().code(), StatusCode::kInvalidArgument);
  }
}

// A row count past the 32-bit (rank, row) packing fails cleanly. With no
// columns the matrix allocates nothing.
TEST(ColumnRanksTest, RejectsRowCountBeyondThePacking) {
  const Matrix x(static_cast<size_t>(std::numeric_limits<uint32_t>::max()) + 1,
                 0);
  const Result<ColumnRanks> ranks = ColumnRanks::Build(x);
  ASSERT_FALSE(ranks.ok());
  EXPECT_EQ(ranks.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------- Non-finite input --

Dataset WithValue(size_t row, size_t col, double value) {
  Dataset data = MakeTiedData(60, 6, 3, 5);
  Matrix x = data.features();
  x(row, col) = value;
  return std::move(Dataset::Create(std::move(x), data.labels(), {}, {},
                                   data.class_names()))
      .value();
}

TEST(NonFiniteInputTest, TreeForestAndAdaBoostRejectNonFiniteFeatures) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const Dataset data = WithValue(17, 4, bad);
    DecisionTree tree;
    EXPECT_EQ(tree.Fit(data).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(tree.fitted());
    RandomForestParams forest_params;
    forest_params.n_estimators = 3;
    RandomForest forest(forest_params);
    EXPECT_EQ(forest.Fit(data).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(forest.fitted());
    AdaBoostParams boost_params;
    boost_params.n_estimators = 3;
    AdaBoost boost(boost_params);
    EXPECT_EQ(boost.Fit(data).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(boost.fitted());
  }
}

TEST(NonFiniteInputTest, TreeRejectsNonFiniteWeights) {
  const Dataset data = MakeTiedData(60, 6, 3, 5);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<double> weights(data.num_samples(), 1.0);
    weights[9] = bad;
    DecisionTree tree;
    EXPECT_EQ(tree.FitWeighted(data, weights).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(NonFiniteInputTest, RankTableMustMatchTheTrainingMatrix) {
  const Dataset data = MakeTiedData(60, 6, 3, 5);
  const Dataset other = MakeTiedData(61, 6, 3, 5);
  const ColumnRanks ranks =
      std::move(ColumnRanks::Build(other.features())).value();
  DecisionTree tree;
  EXPECT_EQ(tree.FitWeighted(data, {}, ranks).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------- Parity suite --

enum class WeightKind { kUniform, kBootstrap, kBoosted };

std::vector<double> MakeWeights(WeightKind kind, size_t n, uint64_t seed) {
  switch (kind) {
    case WeightKind::kBootstrap:
      return BootstrapWeights(n, seed);
    case WeightKind::kBoosted:
      return BoostedWeights(n, seed);
    case WeightKind::kUniform:
      break;
  }
  return {};
}

// Every combination of criterion, leaf size, depth cap, split minimum,
// feature subsetting, weight shape and class balancing fits the same
// tree as the oracle, bit for bit, over two tie-heavy datasets. The
// integer-weight fits take the radix path at every node (two passes on
// columns with more than 256 distinct values), the fractional ones the
// comparison sort.
TEST(SplitParityTest, TreesMatchTheComparisonSortOracle) {
  const std::vector<Dataset> datasets = {MakeTiedData(400, 10, 3, 21),
                                         MakeTiedData(300, 7, 5, 22)};
  size_t fits = 0;
  for (size_t d = 0; d < datasets.size(); ++d) {
    const Dataset& data = datasets[d];
    const ColumnRanks ranks =
        std::move(ColumnRanks::Build(data.features())).value();
    for (const SplitCriterion criterion :
         {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
      for (const int min_leaf : {1, 3, 7}) {
        for (const int max_depth : {0, 5}) {
          for (const int min_split : {2, 12}) {
            for (const int max_features : {0, 3}) {
              for (const WeightKind kind :
                   {WeightKind::kUniform, WeightKind::kBootstrap,
                    WeightKind::kBoosted}) {
                for (const bool balanced : {false, true}) {
                  DecisionTreeParams params;
                  params.criterion = criterion;
                  params.min_samples_leaf = min_leaf;
                  params.max_depth = max_depth;
                  params.min_samples_split = min_split;
                  params.max_features = max_features;
                  params.balanced_class_weights = balanced;
                  params.seed = 1000 + fits;
                  const std::vector<double> weights =
                      MakeWeights(kind, data.num_samples(), 77 + fits);
                  const std::string context =
                      "dataset " + std::to_string(d) + " fit " +
                      std::to_string(fits);
                  DecisionTree tree(params);
                  ASSERT_TRUE(tree.FitWeighted(data, weights, ranks).ok())
                      << context;
                  ExpectSameTree(tree, OracleFit(data, weights, params),
                                 context);
                  ++fits;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(fits, 2u * 2 * 3 * 2 * 2 * 2 * 3 * 2);
}

// The standalone overloads build their own table and fit the same tree.
TEST(SplitParityTest, StandaloneFitsMatchTheOracle) {
  const Dataset data = MakeTiedData(500, 12, 4, 31);
  DecisionTreeParams params;
  params.seed = 3;
  DecisionTree plain(params);
  ASSERT_TRUE(plain.Fit(data).ok());
  ExpectSameTree(plain, OracleFit(data, {}, params), "Fit");
  const std::vector<double> weights = BootstrapWeights(data.num_samples(), 4);
  DecisionTree weighted(params);
  ASSERT_TRUE(weighted.FitWeighted(data, weights).ok());
  ExpectSameTree(weighted, OracleFit(data, weights, params), "FitWeighted");
}

// A forest's trees, fit over one shared rank table, are the oracle's
// trees on the same bootstrap draws (RandomForest::Fit's RNG protocol:
// per tree, a seed and then n bounded draws).
TEST(SplitParityTest, ForestTreesMatchTheOracleOnTheirBootstraps) {
  const Dataset data = MakeTiedData(600, 15, 4, 41);
  for (const bool balanced : {false, true}) {
    RandomForestParams params;
    params.n_estimators = 6;
    params.seed = 17;
    params.balanced_class_weights = balanced;
    RandomForest forest(params);
    ASSERT_TRUE(forest.Fit(data).ok());
    Rng rng(params.seed);
    const size_t n = data.num_samples();
    for (size_t t = 0; t < forest.NumTrees(); ++t) {
      DecisionTreeParams tree_params;
      tree_params.max_features = 4;  // round(sqrt(15))
      tree_params.balanced_class_weights = balanced;
      tree_params.seed = rng.NextUint64();
      std::vector<double> weights(n, 0.0);
      for (size_t i = 0; i < n; ++i) weights[rng.NextBounded(n)] += 1.0;
      ExpectSameTree(forest.trees()[t], OracleFit(data, weights, tree_params),
                     "tree " + std::to_string(t));
    }
  }
}

}  // namespace
}  // namespace trajkit::ml
