// Golden parity and lifecycle tests for the compiled flat inference form
// (ml/flat_forest.h): bit-identity against the pointer walk at 1 and 8
// threads, NaN/+-inf rows and the 64-row block edges, and serialize ->
// compile-on-register -> hot-swap parity through the serving registry.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
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

void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      // EXPECT_EQ (not NEAR): the contract is the same bits, not closeness.
      EXPECT_EQ(a(r, c), b(r, c)) << "row " << r << " col " << c;
    }
  }
}

TEST(FlatForestTest, CompileRequiresFittedForest) {
  RandomForest forest;
  EXPECT_FALSE(FlatForest::Compile(forest).ok());
  EXPECT_FALSE(forest.CompileFlat().ok());
}

TEST(FlatForestTest, PredictAndProbaBitIdenticalToPointerWalkAcrossThreads) {
  const Dataset train = MakeBlobs(4, 60, 6, 1.4, 7);
  RandomForestParams params;
  params.n_estimators = 16;
  RandomForest pointer(params);
  ASSERT_TRUE(pointer.Fit(train).ok());

  RandomForest flat = pointer;  // Same fitted trees; this copy compiles.
  ASSERT_TRUE(flat.CompileFlat().ok());
  ASSERT_NE(flat.flat(), nullptr);
  EXPECT_EQ(pointer.flat(), nullptr);  // The baseline stays a pointer walk.

  // 200 rows spans multiple 64-row blocks plus a ragged tail.
  const Matrix queries = RandomQueries(200, 6, 99);
  for (const int threads : {1, 8}) {
    ScopedThreads scoped(threads);
    EXPECT_EQ(pointer.Predict(queries), flat.Predict(queries))
        << "threads=" << threads;
    ExpectBitIdentical(std::move(pointer.PredictProba(queries)).value(),
                       std::move(flat.PredictProba(queries)).value());
  }
}

TEST(FlatForestTest, NanAndInfinityRowsAgreeWithPointerWalk) {
  const Dataset train = MakeBlobs(3, 50, 4, 1.2, 11);
  RandomForest pointer;
  ASSERT_TRUE(pointer.Fit(train).ok());
  RandomForest flat = pointer;
  ASSERT_TRUE(flat.CompileFlat().ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Matrix weird = Matrix::FromRows({{nan, 0.5, -0.5, 1.0},
                                         {nan, nan, nan, nan},
                                         {inf, -inf, 0.0, nan},
                                         {-inf, inf, nan, 2.0}});
  EXPECT_EQ(pointer.Predict(weird), flat.Predict(weird));
  ExpectBitIdentical(std::move(pointer.PredictProba(weird)).value(),
                     std::move(flat.PredictProba(weird)).value());
}

// The serving kernel: one descent per row and tree fills both outputs,
// which must equal Predict + PredictProba byte for byte (memcmp), and the
// pointer walk too. Covers NaN and +-inf cells, 1 and 8 threads, and
// batch sizes on both sides of the 64-row block edge — 1 and 65 (a 64-row
// block plus a 1-row block) put several trees in one cohort (64 / block
// lanes per tree), 63 and 64 one tree per cohort.
TEST(FlatForestTest, OnePassKernelMatchesPredictPlusProbaBitForBit) {
  const Dataset blobs = MakeBlobs(4, 60, 6, 1.4, 71);
  // Leaves of >= 8 samples are mixed, so vote sums are fractional and a
  // changed accumulation order or scaling shows in the bits; the trees
  // still grow to uneven depths, which the cohort descent must cover.
  RandomForestParams mixed_leaves;
  mixed_leaves.min_samples_leaf = 8;
  RandomForest pointer(mixed_leaves);
  ASSERT_TRUE(pointer.Fit(blobs).ok());
  RandomForest compiled = pointer;
  ASSERT_TRUE(compiled.CompileFlat().ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const FlatForest& flat = *compiled.flat();
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

    const std::vector<int> pointer_labels = pointer.Predict(queries);
    const Matrix pointer_probs =
        std::move(pointer.PredictProba(queries)).value();
    for (const int threads : {1, 8}) {
      ScopedThreads scoped(threads);
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      const std::vector<int> labels = compiled.Predict(queries);
      const Matrix probs = std::move(compiled.PredictProba(queries)).value();
      std::vector<int> one_labels(n, -1);
      std::vector<double> one_probs(n * k, -1.0);
      flat.PredictWithProba(queries, one_labels, one_probs);
      EXPECT_EQ(
          std::memcmp(one_labels.data(), labels.data(), n * sizeof(int)), 0);
      EXPECT_EQ(std::memcmp(one_probs.data(), probs.data().data(),
                            n * k * sizeof(double)),
                0);
      EXPECT_EQ(one_labels, pointer_labels);
      EXPECT_EQ(std::memcmp(one_probs.data(), pointer_probs.data().data(),
                            n * k * sizeof(double)),
                0);

      // The forest-level entry point (what serving calls) reuses its
      // buffers and lands on the same bytes.
      std::vector<int> forest_labels(3, 9);
      Matrix forest_probs(2, 7);
      ASSERT_TRUE(
          compiled.PredictWithProba(queries, &forest_labels, &forest_probs)
              .ok());
      EXPECT_EQ(forest_labels, labels);
      ASSERT_EQ(forest_probs.rows(), n);
      ASSERT_EQ(forest_probs.cols(), k);
      EXPECT_EQ(std::memcmp(forest_probs.data().data(), probs.data().data(),
                            n * k * sizeof(double)),
                0);
    }
  }
}

TEST(FlatForestTest, StatsCountNodesAndDedupedDistributions) {
  const Dataset train = MakeBlobs(3, 40, 5, 1.0, 21);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(train).ok());
  ASSERT_TRUE(forest.CompileFlat().ok());

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

TEST(FlatForestTest, RefitDropsCompiledForm) {
  const Dataset train = MakeBlobs(3, 30, 4, 1.0, 31);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(train).ok());
  ASSERT_TRUE(forest.CompileFlat().ok());
  ASSERT_NE(forest.flat(), nullptr);
  ASSERT_TRUE(forest.Fit(train).ok());
  EXPECT_EQ(forest.flat(), nullptr);
}

TEST(FlatForestTest, SerializeCompileOnRegisterSwapParity) {
  const int kFeatures = 5;
  const Dataset train = MakeBlobs(3, 50, kFeatures, 1.3, 71);
  RandomForest offline;
  ASSERT_TRUE(offline.Fit(train).ok());

  // Round-trip through the wire format: the restored forest arrives
  // uncompiled and the registry must lower it on Register.
  RandomForest restored =
      std::move(RandomForest::Deserialize(offline.Serialize())).value();
  ASSERT_EQ(restored.flat(), nullptr);

  serve::ModelRegistry registry;
  serve::ServingModel model =
      std::move(serve::MakeServingModel("v1", std::move(restored), kFeatures))
          .value();
  ASSERT_TRUE(registry.Publish(std::move(model)).ok());

  const std::shared_ptr<const serve::ServingModel> active =
      registry.Acquire().active;
  ASSERT_NE(active, nullptr);
  ASSERT_NE(active->forest.flat(), nullptr);  // Compiled on Register.

  const Matrix queries = RandomQueries(96, kFeatures, 72);
  std::vector<std::vector<double>> rows;
  for (size_t r = 0; r < queries.rows(); ++r) {
    const std::span<const double> row = queries.Row(r);
    rows.emplace_back(row.begin(), row.end());
  }
  const std::vector<serve::Prediction> served =
      std::move(active->PredictBatch(rows)).value();
  const std::vector<int> expected = offline.Predict(queries);
  const Matrix expected_proba =
      std::move(offline.PredictProba(queries)).value();
  ASSERT_EQ(served.size(), expected.size());
  for (size_t r = 0; r < served.size(); ++r) {
    EXPECT_EQ(served[r].label, expected[r]);
    ASSERT_EQ(served[r].probabilities.size(), expected_proba.cols());
    for (size_t c = 0; c < expected_proba.cols(); ++c) {
      EXPECT_EQ(served[r].probabilities[c], expected_proba(r, c));
    }
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
  const std::vector<int> expected = forest.Predict(queries);
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
        }
      }
    });
  }
  swapper.join();
  for (std::thread& reader : readers) reader.join();
}

}  // namespace
}  // namespace trajkit::ml
