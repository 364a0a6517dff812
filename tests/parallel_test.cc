// Tests of the deterministic parallel execution layer (common/parallel):
// thread-pool mechanics first, then the determinism contract — every
// parallel hot path must produce bit-identical results at threads=1 and
// threads=8.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "ml/crossval.h"
#include "ml/dataset.h"
#include "ml/feature_selection.h"
#include "ml/random_forest.h"
#include "ml/splits.h"

namespace trajkit {
namespace {

/// Forces a thread budget for the enclosing scope and restores the default
/// on exit, so tests do not leak their setting into each other.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { SetMaxThreads(n); }
  ~ScopedThreads() { SetMaxThreads(0); }
};

TEST(ParallelForTest, EmptyRangeIsOkAndNeverInvokesFn) {
  ScopedThreads threads(4);
  std::atomic<int> calls{0};
  EXPECT_TRUE(ParallelFor(5, 5, 1, [&](size_t) { ++calls; }).ok());
  EXPECT_TRUE(ParallelFor(7, 3, 1, [&](size_t) { ++calls; }).ok());
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, GrainLargerThanRangeCoversEveryIndexOnce) {
  ScopedThreads threads(4);
  std::vector<int> hits(13, 0);
  ASSERT_TRUE(
      ParallelFor(0, hits.size(), 1000, [&](size_t i) { hits[i]++; }).ok());
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnceAcrossGrains) {
  ScopedThreads threads(8);
  for (size_t grain : {size_t{1}, size_t{3}, size_t{16}, size_t{0}}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    ASSERT_TRUE(
        ParallelFor(0, hits.size(), grain, [&](size_t i) { hits[i]++; })
            .ok());
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "grain=" << grain;
  }
}

TEST(ParallelForTest, NonZeroBeginOffsetsIndices) {
  ScopedThreads threads(4);
  std::vector<int> hits(10, 0);
  ASSERT_TRUE(ParallelFor(4, 10, 2, [&](size_t i) { hits[i]++; }).ok());
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], i >= 4 ? 1 : 0);
}

TEST(ParallelForTest, ExceptionPropagatesAsInternalStatus) {
  ScopedThreads threads(4);
  const Status status = ParallelFor(0, 64, 1, [&](size_t i) {
    if (i == 17) throw std::runtime_error("boom at 17");
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("boom at 17"), std::string::npos);
  // Serial path has the same contract.
  ScopedThreads one(1);
  const Status serial = ParallelFor(0, 4, 1, [&](size_t) {
    throw std::runtime_error("serial boom");
  });
  EXPECT_EQ(serial.code(), StatusCode::kInternal);
}

TEST(ParallelForTest, ConcurrentCallersFromMultipleThreads) {
  ScopedThreads threads(4);
  constexpr int kCallers = 6;
  constexpr size_t kPerCaller = 512;
  std::vector<std::vector<int>> hits(kCallers,
                                     std::vector<int>(kPerCaller, 0));
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const Status status = ParallelFor(
          0, kPerCaller, 8, [&, c](size_t i) { hits[c][i]++; });
      if (!status.ok()) ++failures;
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (const auto& per_caller : hits) {
    for (int h : per_caller) ASSERT_EQ(h, 1);
  }
}

TEST(ParallelForTest, NestedInvocationDoesNotDeadlock) {
  ScopedThreads threads(4);
  std::vector<std::vector<int>> hits(16, std::vector<int>(32, 0));
  ASSERT_TRUE(ParallelFor(0, hits.size(), 1, [&](size_t outer) {
                const Status inner = ParallelFor(
                    0, hits[outer].size(), 4,
                    [&](size_t i) { hits[outer][i]++; });
                ASSERT_TRUE(inner.ok());
              }).ok());
  for (const auto& row : hits) {
    for (int h : row) ASSERT_EQ(h, 1);
  }
}

TEST(ParallelMapTest, PreservesIndexOrderForMoveOnlyResults) {
  ScopedThreads threads(8);
  // Built via append (not operator+) to sidestep a GCC 12 -Wrestrict
  // false positive (PR 105651) under -Werror.
  const auto name_for = [](size_t i) {
    std::string out("v");
    out += std::to_string(i * i);
    return out;
  };
  const auto mapped = ParallelMap<std::string>(100, 3, name_for);
  ASSERT_TRUE(mapped.ok());
  ASSERT_EQ(mapped->size(), 100u);
  for (size_t i = 0; i < mapped->size(); ++i) {
    EXPECT_EQ((*mapped)[i], name_for(i));
  }
}

TEST(ParallelMapTest, ExceptionSurfacesAsStatus) {
  ScopedThreads threads(4);
  const auto mapped = ParallelMap<int>(16, 1, [](size_t i) -> int {
    if (i == 3) throw std::runtime_error("map boom");
    return static_cast<int>(i);
  });
  EXPECT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kInternal);
}

TEST(MaxThreadsTest, SetMaxThreadsRoundTripsAndZeroRestoresDefault) {
  SetMaxThreads(3);
  EXPECT_EQ(MaxThreads(), 3);
  SetMaxThreads(8);
  EXPECT_EQ(MaxThreads(), 8);
  SetMaxThreads(0);
  EXPECT_GE(MaxThreads(), 1);
}

// ---------------------------------------------------------------------------
// Determinism suite: threads=1 and threads=8 must agree bit-for-bit.
// ---------------------------------------------------------------------------

ml::Dataset MakeGroupedBlobs(int num_classes, int per_class, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  std::vector<int> groups;
  for (int c = 0; c < num_classes; ++c) {
    for (int i = 0; i < per_class; ++i) {
      std::vector<double> row(6);
      for (double& v : row) v = rng.Gaussian(0.0, 1.0);
      row[0] += 1.8 * c;
      row[1] -= 0.9 * c;
      rows.push_back(std::move(row));
      labels.push_back(c);
      groups.push_back(i % 5);  // 5 synthetic "users".
    }
  }
  std::vector<std::string> class_names;
  for (int c = 0; c < num_classes; ++c) {
    class_names.push_back(std::string(1, 'c') + std::to_string(c));
  }
  return std::move(ml::Dataset::Create(ml::Matrix::FromRows(rows),
                                       std::move(labels), std::move(groups),
                                       {}, std::move(class_names)))
      .value();
}

/// Runs `fn` under threads=1 and threads=8 and returns both outputs.
template <typename Fn>
auto UnderBothThreadCounts(Fn&& fn) {
  SetMaxThreads(1);
  auto serial = fn();
  SetMaxThreads(8);
  auto parallel = fn();
  SetMaxThreads(0);
  return std::make_pair(std::move(serial), std::move(parallel));
}

TEST(ParallelDeterminismTest, RandomForestFitPredictImportances) {
  const ml::Dataset data = MakeGroupedBlobs(4, 40, 11);
  auto run = [&] {
    ml::RandomForestParams params;
    params.n_estimators = 12;
    params.seed = 99;
    ml::RandomForest forest(params);
    EXPECT_TRUE(forest.Fit(data).ok());
    return std::make_tuple(forest.Serialize(), forest.FeatureImportances(),
                           forest.Predict(data.features()));
  };
  const auto [serial, parallel] = UnderBothThreadCounts(run);
  // Serialized models are textual: bit-identical forests compare equal.
  EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel));
  EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel));
  EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel));
}

// Every tree of a forest reads one shared rank table while fitting on
// its own thread, radix-sorting 800 rows with quantized (tied) columns
// under bootstrap weights; the forest must not depend on the thread
// count.
TEST(ParallelDeterminismTest, SharedRankTableForestIsThreadIndependent) {
  Rng rng(23);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 800; ++i) {
    const int c = static_cast<int>(rng.NextBounded(3));
    std::vector<double> row(9);
    for (size_t f = 0; f < row.size(); ++f) {
      const double v = rng.Gaussian(f % 3 == 0 ? 0.6 * c : 0.0, 1.0);
      row[f] = f % 2 == 0 ? std::round(v * 4.0) / 4.0 : v;
    }
    rows.push_back(std::move(row));
    labels.push_back(c);
  }
  const ml::Dataset data =
      std::move(ml::Dataset::Create(ml::Matrix::FromRows(rows),
                                    std::move(labels), {}, {},
                                    {"c0", "c1", "c2"}))
          .value();
  auto run = [&] {
    ml::RandomForestParams params;
    params.n_estimators = 16;
    params.seed = 5;
    ml::RandomForest forest(params);
    EXPECT_TRUE(forest.Fit(data).ok());
    return forest.Serialize();
  };
  const auto [serial, parallel] = UnderBothThreadCounts(run);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDeterminismTest, PredictProbaMatchesExactly) {
  const ml::Dataset data = MakeGroupedBlobs(3, 30, 5);
  ml::RandomForestParams params;
  params.n_estimators = 10;
  ml::RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(data).ok());
  auto run = [&] { return std::move(forest.PredictProba(data.features())).value(); };
  const auto [serial, parallel] = UnderBothThreadCounts(run);
  ASSERT_EQ(serial.rows(), parallel.rows());
  for (size_t r = 0; r < serial.rows(); ++r) {
    for (size_t c = 0; c < serial.cols(); ++c) {
      ASSERT_EQ(serial(r, c), parallel(r, c));
    }
  }
}

TEST(ParallelDeterminismTest, CrossValidateFoldAccuracies) {
  const ml::Dataset data = MakeGroupedBlobs(3, 50, 21);
  auto run = [&] {
    ml::RandomForestParams params;
    params.n_estimators = 8;
    params.seed = 7;
    const ml::RandomForest forest(params);
    Rng fold_rng(13);
    const auto folds = ml::KFold(data.num_samples(), 4, fold_rng);
    return std::move(ml::CrossValidate(forest, data, folds)).value();
  };
  const auto [serial, parallel] = UnderBothThreadCounts(run);
  EXPECT_EQ(serial.fold_accuracy, parallel.fold_accuracy);
  EXPECT_EQ(serial.fold_macro_f1, parallel.fold_macro_f1);
  EXPECT_EQ(serial.fold_weighted_f1, parallel.fold_weighted_f1);
  EXPECT_EQ(serial.pooled_true, parallel.pooled_true);
  EXPECT_EQ(serial.pooled_pred, parallel.pooled_pred);
}

TEST(ParallelDeterminismTest, ForwardWrapperSelectionSteps) {
  const ml::Dataset data = MakeGroupedBlobs(3, 30, 31);
  auto run = [&] {
    // CV-accuracy evaluator in the same shape as the Fig. 3 harness:
    // everything captured by value or freshly constructed per call.
    const ml::SubsetEvaluator evaluator = [](const ml::Dataset& subset) {
      ml::RandomForestParams params;
      params.n_estimators = 5;
      params.seed = 3;
      const ml::RandomForest forest(params);
      Rng fold_rng(41);
      const auto folds = ml::KFold(subset.num_samples(), 3, fold_rng);
      const auto cv = ml::CrossValidate(forest, subset, folds);
      return cv.ok() ? cv->MeanAccuracy() : 0.0;
    };
    return std::move(ml::ForwardWrapperSelection(data, evaluator, 4)).value();
  };
  const auto [serial, parallel] = UnderBothThreadCounts(run);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].feature_index, parallel[i].feature_index);
    EXPECT_EQ(serial[i].score, parallel[i].score);
  }
}

}  // namespace
}  // namespace trajkit
