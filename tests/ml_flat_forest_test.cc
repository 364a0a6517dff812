// Golden parity and lifecycle tests for the compiled flat inference form
// (ml/flat_forest.h), which every fitted or deserialized RandomForest
// predicts through: memcmp-equality against the pointer-walk oracle
// (forest_oracle.h) at 1 and 8 threads, NaN/+-inf rows and the 64-row
// block edges, and serialize -> publish -> hot-swap parity through the
// serving registry.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "forest_oracle.h"
#include "ml/flat_forest.h"
#include "ml/random_forest.h"
#include "serve/model_registry.h"

namespace trajkit::ml {
namespace {

/// Pins the worker-pool size for a scope; 0 restores the default.
struct ScopedThreads {
  explicit ScopedThreads(int n) { SetMaxThreads(n); }
  ~ScopedThreads() { SetMaxThreads(0); }
};

/// Gaussian blobs with overlap so trees grow real depth (not all pure
/// root-level splits) and some leaves share distributions.
Dataset MakeBlobs(int num_classes, int per_class, int num_features,
                  double spread, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  std::vector<std::string> feature_names;
  for (int f = 0; f < num_features; ++f) {
    feature_names.push_back("f" + std::to_string(f));
  }
  std::vector<std::string> class_names;
  for (int c = 0; c < num_classes; ++c) {
    class_names.push_back("c" + std::to_string(c));
    for (int i = 0; i < per_class; ++i) {
      std::vector<double> row(static_cast<size_t>(num_features));
      for (int f = 0; f < num_features; ++f) {
        row[static_cast<size_t>(f)] =
            rng.Gaussian(1.5 * c * ((f % 3) - 1), spread);
      }
      rows.push_back(std::move(row));
      labels.push_back(c);
    }
  }
  return std::move(Dataset::Create(Matrix::FromRows(rows), std::move(labels),
                                   {}, std::move(feature_names),
                                   std::move(class_names)))
      .value();
}

Matrix RandomQueries(size_t rows, int num_features, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> out;
  for (size_t r = 0; r < rows; ++r) {
    std::vector<double> row(static_cast<size_t>(num_features));
    for (int f = 0; f < num_features; ++f) {
      row[static_cast<size_t>(f)] = rng.Gaussian(0.0, 3.0);
    }
    out.push_back(std::move(row));
  }
  return Matrix::FromRows(out);
}

using testing::PointerWalkPredict;
using testing::PointerWalkProba;

// memcmp, not EXPECT_EQ per cell: the contract is the same bytes, which
// also pins -0.0 against 0.0.
void ExpectSameBytes(const std::vector<int>& a, const std::vector<int>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(int)), 0);
}

void ExpectSameBytes(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.rows() * a.cols() * sizeof(double)),
            0);
}

/// Predict, PredictProba and PredictWithProba of `forest` against the
/// pointer-walk oracle.
void ExpectMatchesOracle(const RandomForest& forest, const Matrix& queries) {
  const std::vector<int> labels = PointerWalkPredict(forest, queries);
  const Matrix probs = PointerWalkProba(forest, queries);
  ExpectSameBytes(forest.Predict(queries), labels);
  ExpectSameBytes(std::move(forest.PredictProba(queries)).value(), probs);
  std::vector<int> one_labels;
  Matrix one_probs;
  ASSERT_TRUE(forest.PredictWithProba(queries, &one_labels, &one_probs).ok());
  ExpectSameBytes(one_labels, labels);
  ExpectSameBytes(one_probs, probs);
}

TEST(FlatForestTest, CompileRequiresFittedForest) {
  RandomForest forest;
  EXPECT_FALSE(FlatForest::Compile(forest).ok());
  EXPECT_EQ(forest.flat(), nullptr);
}

TEST(FlatForestTest, FitAndDeserializeCompile) {
  const Dataset train = MakeBlobs(3, 30, 4, 1.0, 5);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(train).ok());
  ASSERT_NE(forest.flat(), nullptr);
  EXPECT_EQ(forest.flat()->num_trees(), forest.NumTrees());
  const RandomForest restored =
      std::move(RandomForest::Deserialize(forest.Serialize())).value();
  ASSERT_NE(restored.flat(), nullptr);
  EXPECT_EQ(restored.flat()->num_nodes(), forest.flat()->num_nodes());
}

TEST(FlatForestTest, PredictAndProbaBitIdenticalToPointerWalkAcrossThreads) {
  const Dataset train = MakeBlobs(4, 60, 6, 1.4, 7);
  RandomForestParams params;
  params.n_estimators = 16;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());

  // 200 rows spans multiple 64-row blocks plus a ragged tail.
  const Matrix queries = RandomQueries(200, 6, 99);
  for (const int threads : {1, 8}) {
    ScopedThreads scoped(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectMatchesOracle(forest, queries);
  }
}

TEST(FlatForestTest, NanAndInfinityRowsAgreeWithPointerWalk) {
  const Dataset train = MakeBlobs(3, 50, 4, 1.2, 11);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(train).ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Matrix weird = Matrix::FromRows({{nan, 0.5, -0.5, 1.0},
                                         {nan, nan, nan, nan},
                                         {inf, -inf, 0.0, nan},
                                         {-inf, inf, nan, 2.0}});
  for (const int threads : {1, 8}) {
    ScopedThreads scoped(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectMatchesOracle(forest, weird);
  }
}

// The serving kernel: one descent per row and tree fills both outputs,
// which must equal Predict + PredictProba and the pointer walk byte for
// byte. Covers NaN and +-inf cells, 1 and 8 threads, and batch sizes on
// both sides of the 64-row block edge — 1 and 65 (a 64-row block plus a
// 1-row block) put several trees in one cohort (64 / block lanes per
// tree), 63 and 64 one tree per cohort.
TEST(FlatForestTest, OnePassKernelMatchesPredictPlusProbaBitForBit) {
  const Dataset blobs = MakeBlobs(4, 60, 6, 1.4, 71);
  // Leaves of >= 8 samples are mixed, so vote sums are fractional and a
  // changed accumulation order or scaling shows in the bits; the trees
  // still grow to uneven depths, which the cohort descent must cover.
  RandomForestParams mixed_leaves;
  mixed_leaves.min_samples_leaf = 8;
  RandomForest forest(mixed_leaves);
  ASSERT_TRUE(forest.Fit(blobs).ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const FlatForest& flat = *forest.flat();
  const size_t k = static_cast<size_t>(flat.num_classes());
  for (const size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65}}) {
    // Training rows, then NaN and +-inf cells: a NaN first row, a last
    // row of -inf, +inf in the middle.
    const Matrix& source = blobs.features();
    Matrix queries(n, source.cols());
    for (size_t r = 0; r < n; ++r) {
      const std::span<const double> row = source.Row((r * 7) % source.rows());
      std::copy(row.begin(), row.end(), queries.MutableRow(r).begin());
    }
    queries(0, 0) = nan;
    queries(n - 1, source.cols() - 1) = -inf;
    queries(n / 2, 1) = inf;

    const std::vector<int> oracle_labels = PointerWalkPredict(forest, queries);
    const Matrix oracle_probs = PointerWalkProba(forest, queries);
    for (const int threads : {1, 8}) {
      ScopedThreads scoped(threads);
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      std::vector<int> one_labels(n, -1);
      std::vector<double> one_probs(n * k, -1.0);
      flat.PredictWithProba(queries, one_labels, one_probs);
      ExpectSameBytes(one_labels, oracle_labels);
      EXPECT_EQ(std::memcmp(one_probs.data(), oracle_probs.data().data(),
                            n * k * sizeof(double)),
                0);
      ExpectSameBytes(forest.Predict(queries), oracle_labels);
      ExpectSameBytes(std::move(forest.PredictProba(queries)).value(),
                      oracle_probs);

      // The forest-level entry point (what serving calls) reuses its
      // buffers and lands on the same bytes.
      std::vector<int> forest_labels(3, 9);
      Matrix forest_probs(2, 7);
      ASSERT_TRUE(
          forest.PredictWithProba(queries, &forest_labels, &forest_probs)
              .ok());
      ExpectSameBytes(forest_labels, oracle_labels);
      ExpectSameBytes(forest_probs, oracle_probs);
    }
  }
}

TEST(FlatForestTest, StatsCountNodesAndDedupedDistributions) {
  const Dataset train = MakeBlobs(3, 40, 5, 1.0, 21);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(train).ok());

  size_t expected_nodes = 0;
  for (const DecisionTree& tree : forest.trees()) {
    expected_nodes += tree.NodeCount();
  }
  const FlatForestStats stats = forest.flat()->Stats();
  EXPECT_EQ(stats.num_trees, forest.NumTrees());
  EXPECT_EQ(stats.num_nodes, expected_nodes);
  EXPECT_GT(stats.num_leaves, stats.num_trees);
  // Pure leaves dominate a fitted forest, so folding identical
  // distributions into the shared table must actually deduplicate.
  EXPECT_LT(stats.shared_distributions, stats.num_leaves);
}

TEST(FlatForestTest, RefitReplacesCompiledForm) {
  const Dataset train = MakeBlobs(3, 30, 4, 1.0, 31);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(train).ok());
  const RandomForest copy = forest;  // Shares the immutable flat form.
  ASSERT_EQ(copy.flat(), forest.flat());

  ASSERT_TRUE(forest.Fit(MakeBlobs(3, 30, 4, 1.0, 32)).ok());
  ASSERT_NE(forest.flat(), nullptr);
  EXPECT_NE(forest.flat(), copy.flat());
  const Matrix queries = RandomQueries(80, 4, 33);
  ExpectMatchesOracle(forest, queries);
  ExpectMatchesOracle(copy, queries);

  // A refit that fails after dropping the old trees (here on a NaN
  // feature) leaves an unfitted forest with no flat form.
  const Dataset poisoned =
      std::move(Dataset::Create(
                    Matrix::FromRows({{std::numeric_limits<double>::quiet_NaN()},
                                      {1.0}}),
                    {0, 1}, {}, {}, {"a", "b"}))
          .value();
  EXPECT_FALSE(forest.Fit(poisoned).ok());
  EXPECT_FALSE(forest.fitted());
  EXPECT_EQ(forest.flat(), nullptr);
}

TEST(FlatForestTest, SerializePublishSwapParity) {
  const int kFeatures = 5;
  const Dataset train = MakeBlobs(3, 50, kFeatures, 1.3, 71);
  RandomForest offline;
  ASSERT_TRUE(offline.Fit(train).ok());

  // Round-trip through the wire format: the restored forest arrives
  // compiled, and the registry publishes it as it is.
  RandomForest restored =
      std::move(RandomForest::Deserialize(offline.Serialize())).value();
  const FlatForest* restored_flat = restored.flat();
  ASSERT_NE(restored_flat, nullptr);

  serve::ModelRegistry registry;
  serve::ServingModel model =
      std::move(serve::MakeServingModel("v1", std::move(restored), kFeatures))
          .value();
  ASSERT_TRUE(registry.Publish(std::move(model)).ok());

  const std::shared_ptr<const serve::ServingModel> active =
      registry.Acquire().active;
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->forest.flat(), restored_flat);

  const Matrix queries = RandomQueries(96, kFeatures, 72);
  std::vector<std::vector<double>> rows;
  for (size_t r = 0; r < queries.rows(); ++r) {
    const std::span<const double> row = queries.Row(r);
    rows.emplace_back(row.begin(), row.end());
  }
  const std::vector<serve::Prediction> served =
      std::move(active->PredictBatch(rows)).value();
  const std::vector<int> expected = PointerWalkPredict(offline, queries);
  const Matrix expected_proba = PointerWalkProba(offline, queries);
  ASSERT_EQ(served.size(), expected.size());
  for (size_t r = 0; r < served.size(); ++r) {
    EXPECT_EQ(served[r].label, expected[r]);
    ASSERT_EQ(served[r].probabilities.size(), expected_proba.cols());
    EXPECT_EQ(std::memcmp(served[r].probabilities.data(),
                          expected_proba.Row(r).data(),
                          expected_proba.cols() * sizeof(double)),
              0);
  }
}

// Hot-swapping compiled models while readers predict: snapshots must stay
// immutable and answers bit-identical throughout. Runs under TSan in CI
// (concurrency label).
TEST(FlatForestTest, HotSwapUnderPredictStaysBitIdentical) {
  const int kFeatures = 4;
  const Dataset train = MakeBlobs(3, 40, kFeatures, 1.2, 81);
  RandomForestParams params;
  params.n_estimators = 8;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  const Matrix queries = RandomQueries(32, kFeatures, 82);
  const std::vector<int> expected = PointerWalkPredict(forest, queries);
  const Matrix expected_proba = PointerWalkProba(forest, queries);
  std::vector<std::vector<double>> rows;
  for (size_t r = 0; r < queries.rows(); ++r) {
    const std::span<const double> row = queries.Row(r);
    rows.emplace_back(row.begin(), row.end());
  }

  serve::ModelRegistry registry;
  // Two versions of the same fit: swapping between them must be invisible
  // in the answers.
  ASSERT_TRUE(
      registry
          .Publish(std::move(serve::MakeServingModel(
                                             "v1", forest, kFeatures))
                                   .value())
          .ok());
  ASSERT_TRUE(registry
                  .Register(std::move(serve::MakeServingModel(
                                          "v2", forest, kFeatures))
                                .value())
                  .ok());

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(registry.Publish(i % 2 == 0 ? "v2" : "v1", serve::ModelRole::kActive).ok());
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const std::shared_ptr<const serve::ServingModel> snapshot =
            registry.Acquire().active;
        ASSERT_NE(snapshot, nullptr);
        const std::vector<serve::Prediction> out =
            std::move(snapshot->PredictBatch(rows)).value();
        for (size_t r = 0; r < out.size(); ++r) {
          ASSERT_EQ(out[r].label, expected[r]);
          ASSERT_EQ(out[r].probabilities.size(), expected_proba.cols());
          ASSERT_EQ(std::memcmp(out[r].probabilities.data(),
                                expected_proba.Row(r).data(),
                                expected_proba.cols() * sizeof(double)),
                    0);
        }
      }
    });
  }
  swapper.join();
  for (std::thread& reader : readers) reader.join();
}

}  // namespace
}  // namespace trajkit::ml
