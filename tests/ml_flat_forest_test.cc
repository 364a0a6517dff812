// Golden parity and lifecycle tests for the compiled flat inference form
// (ml/flat_forest.h): bit-identity against the pointer walk at 1 and 8
// threads, the quantization exactness contract (accept and reject), the
// raw binary dump round trip (bit-identical, quantized mirror included),
// and serialize -> compile-on-register -> hot-swap parity through the
// serving registry.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
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

/// Features on a 0.1 grid: every value sits >= 0.05 from every split
/// threshold (midpoints of distinct values) while int16 grid cells are
/// ~range/32000 < 0.002 wide — quantization is always accepted, and any
/// 0.1-grid query descends identically in both forms.
Dataset MakeGridBlobs() {
  Rng rng(41);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 50; ++i) {
      std::vector<double> row(5);
      for (size_t f = 0; f < row.size(); ++f) {
        row[f] = std::round(rng.Gaussian(4.0 * c, 3.0) * 10.0) / 10.0;
      }
      rows.push_back(std::move(row));
      labels.push_back(c);
    }
  }
  return std::move(Dataset::Create(Matrix::FromRows(rows), std::move(labels),
                                   {}, {"a", "b", "c", "d", "e"},
                                   {"c0", "c1", "c2"}))
      .value();
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
// pointer walk too. Covers the exact and the quantized form, NaN and
// +-inf cells, 1 and 8 threads, and batch sizes on both sides of the
// 64-row block edge — 1 and 65 (a 64-row block plus a 1-row block) put
// several trees in one cohort (64 / block lanes per tree), 63 and 64 one
// tree per cohort.
TEST(FlatForestTest, OnePassKernelMatchesPredictPlusProbaBitForBit) {
  const Dataset blobs = MakeBlobs(4, 60, 6, 1.4, 71);
  // Leaves of >= 8 samples are mixed, so vote sums are fractional and a
  // changed accumulation order or scaling shows in the bits; the trees
  // still grow to uneven depths, which the cohort descent must cover.
  RandomForestParams mixed_leaves;
  mixed_leaves.min_samples_leaf = 8;
  RandomForest exact_pointer(mixed_leaves);
  ASSERT_TRUE(exact_pointer.Fit(blobs).ok());
  RandomForest exact = exact_pointer;
  ASSERT_TRUE(exact.CompileFlat().ok());

  const Dataset grid = MakeGridBlobs();
  RandomForest quantized_pointer;
  ASSERT_TRUE(quantized_pointer.Fit(grid).ok());
  RandomForest quantized = quantized_pointer;
  FlatForestOptions options;
  options.quantize = true;
  options.exactness_reference = &grid.features();
  ASSERT_TRUE(quantized.CompileFlat(options).ok());
  ASSERT_TRUE(quantized.flat()->quantized());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Form {
    const char* name;
    const RandomForest* pointer;
    const RandomForest* compiled;
    const Dataset* train;
  };
  for (const Form& form : {Form{"exact", &exact_pointer, &exact, &blobs},
                           Form{"quantized", &quantized_pointer, &quantized,
                                &grid}}) {
    const FlatForest& flat = *form.compiled->flat();
    const size_t k = static_cast<size_t>(flat.num_classes());
    for (const size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65}}) {
      // Training rows (on the quantization grid), then NaN and +-inf
      // cells: a NaN first row, a last row of -inf, +inf in the middle.
      const Matrix& source = form.train->features();
      Matrix queries(n, source.cols());
      for (size_t r = 0; r < n; ++r) {
        const std::span<const double> row =
            source.Row((r * 7) % source.rows());
        std::copy(row.begin(), row.end(), queries.MutableRow(r).begin());
      }
      queries(0, 0) = nan;
      queries(n - 1, source.cols() - 1) = -inf;
      queries(n / 2, 1) = inf;

      const std::vector<int> pointer_labels = form.pointer->Predict(queries);
      const Matrix pointer_probs =
          std::move(form.pointer->PredictProba(queries)).value();
      for (const int threads : {1, 8}) {
        ScopedThreads scoped(threads);
        SCOPED_TRACE(std::string(form.name) + " n=" + std::to_string(n) +
                     " threads=" + std::to_string(threads));
        const std::vector<int> labels = form.compiled->Predict(queries);
        const Matrix probs =
            std::move(form.compiled->PredictProba(queries)).value();
        std::vector<int> one_labels(n, -1);
        std::vector<double> one_probs(n * k, -1.0);
        flat.PredictWithProba(queries, one_labels, one_probs);
        EXPECT_EQ(std::memcmp(one_labels.data(), labels.data(),
                              n * sizeof(int)),
                  0);
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
        ASSERT_TRUE(form.compiled
                        ->PredictWithProba(queries, &forest_labels,
                                           &forest_probs)
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
  EXPECT_FALSE(stats.quantized);
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

TEST(FlatForestTest, QuantizationAcceptedIsExactOnReferenceAndQueries) {
  const Dataset train = MakeGridBlobs();
  RandomForest pointer;
  ASSERT_TRUE(pointer.Fit(train).ok());

  RandomForest quantized = pointer;
  FlatForestOptions options;
  options.quantize = true;
  options.exactness_reference = &train.features();
  ASSERT_TRUE(quantized.CompileFlat(options).ok());
  const FlatForest& flat = *quantized.flat();
  ASSERT_TRUE(flat.quantized()) << flat.quantization_rejection();
  EXPECT_TRUE(flat.quantization_rejection().empty());
  EXPECT_TRUE(flat.Stats().quantized);

  EXPECT_EQ(pointer.Predict(train.features()),
            quantized.Predict(train.features()));
  ExpectBitIdentical(
      std::move(pointer.PredictProba(train.features())).value(),
      std::move(quantized.PredictProba(train.features())).value());

  // Off-reference queries carry no exactness guarantee (that is precisely
  // why the check replays reference rows), but the quantized batched
  // cohort kernel must agree with the quantized single-row kernel.
  const Matrix queries = RandomQueries(100, 5, 42);
  const Matrix batch = quantized.PredictProba(queries).value();
  const double inv = 1.0 / static_cast<double>(flat.num_trees());
  for (size_t r = 0; r < queries.rows(); ++r) {
    std::vector<double> acc(3, 0.0);
    flat.AccumulateVotes(queries.Row(r), inv, acc);
    for (size_t c = 0; c < acc.size(); ++c) {
      EXPECT_EQ(batch(r, c), acc[c]) << "row " << r << " col " << c;
    }
  }
}

TEST(FlatForestTest, QuantizationRejectsNearThresholdReferenceSample) {
  // One feature, two well-separated clusters: the single stump threshold
  // sits mid-gap, and a crafted reference sample epsilon above it shares
  // its int16 grid cell — the exactness replay must catch the flip and
  // keep the exact form.
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 8; ++i) {
    rows.push_back({static_cast<double>(i)});
    labels.push_back(0);
    rows.push_back({1.0e6 + static_cast<double>(i)});
    labels.push_back(1);
  }
  Dataset train = std::move(Dataset::Create(Matrix::FromRows(rows),
                                            std::move(labels), {}, {"x"},
                                            {"lo", "hi"}))
                      .value();
  RandomForestParams params;
  params.n_estimators = 1;
  params.bootstrap = false;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());

  // Recover the stump threshold so the crafted sample is provably inside
  // the same quantization cell (cell width ~ gap/32000 >> 1e-3).
  double threshold = 0.0;
  bool found = false;
  for (const DecisionTree::Node& node : forest.trees()[0].nodes()) {
    if (node.feature >= 0) {
      threshold = node.threshold;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);

  const Matrix reference = Matrix::FromRows({{threshold + 1.0e-3}});
  FlatForestOptions options;
  options.quantize = true;
  options.exactness_reference = &reference;
  ASSERT_TRUE(forest.CompileFlat(options).ok());
  EXPECT_FALSE(forest.flat()->quantized());
  EXPECT_NE(forest.flat()->quantization_rejection().find("diverged"),
            std::string::npos)
      << forest.flat()->quantization_rejection();
  // The rejected compile still serves, exactly, from the exact arrays.
  EXPECT_EQ(forest.Predict(reference), std::vector<int>{1});
}

TEST(FlatForestTest, QuantizeOptionsValidated) {
  const Dataset train = MakeBlobs(2, 20, 3, 1.0, 51);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(train).ok());

  FlatForestOptions options;
  options.quantize = true;
  EXPECT_FALSE(forest.CompileFlat(options).ok());  // No reference.

  const Matrix wrong_width = Matrix::FromRows({{1.0, 2.0}});
  options.exactness_reference = &wrong_width;
  EXPECT_FALSE(forest.CompileFlat(options).ok());
}

TEST(FlatForestTest, AccumulateVotesMatchesManualTreeSum) {
  const Dataset train = MakeBlobs(3, 40, 5, 1.2, 61);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(train).ok());
  ASSERT_TRUE(forest.CompileFlat().ok());

  const Matrix queries = RandomQueries(5, 5, 62);
  for (size_t r = 0; r < queries.rows(); ++r) {
    std::vector<double> expected(3, 0.0);
    for (const DecisionTree& tree : forest.trees()) {
      const std::span<const double> dist =
          tree.LeafDistribution(queries.Row(r));
      for (size_t c = 0; c < expected.size(); ++c) {
        expected[c] += dist[c] * 0.25;
      }
    }
    std::vector<double> acc(3, 0.0);
    forest.flat()->AccumulateVotes(queries.Row(r), 0.25, acc);
    for (size_t c = 0; c < expected.size(); ++c) {
      EXPECT_EQ(acc[c], expected[c]);
    }
  }
}

TEST(FlatForestTest, DumpRoundTripIsBitIdentical) {
  const Dataset train = MakeBlobs(4, 60, 6, 1.4, 77);
  RandomForestParams params;
  params.n_estimators = 12;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  const auto compiled = FlatForest::Compile(forest);
  ASSERT_TRUE(compiled.ok());

  const std::string path =
      (std::filesystem::temp_directory_path() / "trajkit_flat_forest.bin")
          .string();
  ASSERT_TRUE(compiled->SaveTo(path).ok());
  const auto loaded = FlatForest::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_classes(), compiled->num_classes());
  EXPECT_EQ(loaded->num_features(), compiled->num_features());
  EXPECT_EQ(loaded->num_trees(), compiled->num_trees());
  EXPECT_EQ(loaded->num_nodes(), compiled->num_nodes());
  EXPECT_EQ(loaded->quantized(), compiled->quantized());

  const Matrix queries = RandomQueries(150, 6, 78);
  EXPECT_EQ(loaded->Predict(queries), compiled->Predict(queries));
  ExpectBitIdentical(loaded->PredictProba(queries),
                     compiled->PredictProba(queries));
  std::remove(path.c_str());
}

TEST(FlatForestTest, DumpRoundTripPreservesTheQuantizedMirror) {
  // Wide blobs quantize cleanly (same construction the acceptance test
  // uses); the loaded mirror must route every query to the same leaf.
  const Dataset train = MakeBlobs(3, 80, 5, 0.4, 81);
  RandomForestParams params;
  params.n_estimators = 10;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  FlatForestOptions options;
  options.quantize = true;
  options.exactness_reference = &train.features();
  const auto compiled = FlatForest::Compile(forest, options);
  ASSERT_TRUE(compiled.ok());
  if (!compiled->quantized()) {
    GTEST_SKIP() << "quantization rejected on this fixture: "
                 << compiled->quantization_rejection();
  }

  const std::string path =
      (std::filesystem::temp_directory_path() / "trajkit_flat_forest_q.bin")
          .string();
  ASSERT_TRUE(compiled->SaveTo(path).ok());
  const auto loaded = FlatForest::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->quantized());

  const Matrix queries = RandomQueries(100, 5, 82);
  for (size_t r = 0; r < queries.rows(); ++r) {
    for (size_t t = 0; t < compiled->num_trees(); ++t) {
      EXPECT_EQ(loaded->LeafIndexForTest(t, queries.Row(r), true),
                compiled->LeafIndexForTest(t, queries.Row(r), true));
    }
  }
  std::remove(path.c_str());
}

TEST(FlatForestTest, LoadRejectsMissingCorruptAndTruncatedDumps) {
  EXPECT_FALSE(FlatForest::LoadFrom("/nonexistent/flat_forest.bin").ok());

  const std::string garbage =
      (std::filesystem::temp_directory_path() / "trajkit_ff_garbage.bin")
          .string();
  ASSERT_TRUE(WriteStringToFile(garbage, "not a forest dump").ok());
  EXPECT_FALSE(FlatForest::LoadFrom(garbage).ok());
  std::remove(garbage.c_str());

  const Dataset train = MakeBlobs(3, 40, 4, 1.2, 83);
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(train).ok());
  const auto compiled = FlatForest::Compile(forest);
  ASSERT_TRUE(compiled.ok());
  const std::string full =
      (std::filesystem::temp_directory_path() / "trajkit_ff_full.bin")
          .string();
  ASSERT_TRUE(compiled->SaveTo(full).ok());
  const std::string bytes = ReadFileToString(full).value();
  const std::string truncated =
      (std::filesystem::temp_directory_path() / "trajkit_ff_trunc.bin")
          .string();
  ASSERT_TRUE(
      WriteStringToFile(truncated,
                        std::string_view(bytes).substr(0, bytes.size() / 2))
          .ok());
  EXPECT_FALSE(FlatForest::LoadFrom(truncated).ok());
  std::remove(full.c_str());
  std::remove(truncated.c_str());
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
