// Tests for model persistence (model_io) and balanced class weights.

#include <gtest/gtest.h>

#include <cmath>

#include "common/csv.h"
#include "common/rng.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "ml/model_io.h"
#include "ml/random_forest.h"

namespace trajkit::ml {
namespace {

Dataset MakeBlobs(int num_classes, int per_class, double spread,
                  uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int c = 0; c < num_classes; ++c) {
    for (int i = 0; i < per_class; ++i) {
      rows.push_back({rng.Gaussian(3.0 * c, spread),
                      rng.Gaussian(c % 2 ? 2.0 : -2.0, spread)});
      labels.push_back(c);
    }
  }
  std::vector<std::string> class_names;
  for (int c = 0; c < num_classes; ++c) {
    class_names.push_back(std::string(1, 'c') + std::to_string(c));
  }
  return std::move(Dataset::Create(Matrix::FromRows(rows),
                                   std::move(labels), {}, {},
                                   std::move(class_names)))
      .value();
}

// --------------------------------------------------------- Serialization --

TEST(ModelIoTest, ForestRoundTripPredictsIdentically) {
  const Dataset train = MakeBlobs(3, 60, 1.2, 1);
  const Dataset test = MakeBlobs(3, 40, 1.2, 2);
  RandomForestParams params;
  params.n_estimators = 12;
  params.seed = 7;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());

  const std::string blob = forest.Serialize();
  const auto restored = RandomForest::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->NumTrees(), forest.NumTrees());
  EXPECT_EQ(restored->Predict(test.features()),
            forest.Predict(test.features()));

  // Probabilities too.
  const auto p1 = forest.PredictProba(test.features());
  const auto p2 = restored->PredictProba(test.features());
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  for (size_t r = 0; r < p1->rows(); ++r) {
    for (size_t c = 0; c < p1->cols(); ++c) {
      EXPECT_DOUBLE_EQ(p1->At(r, c), p2->At(r, c));
    }
  }
}

TEST(ModelIoTest, ImportancesSurviveRoundTrip) {
  const Dataset train = MakeBlobs(2, 80, 0.8, 3);
  RandomForestParams params;
  params.n_estimators = 10;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  const auto restored = RandomForest::Deserialize(forest.Serialize());
  ASSERT_TRUE(restored.ok());
  const auto& a = forest.FeatureImportances();
  const auto& b = restored->FeatureImportances();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12);
  }
  EXPECT_EQ(restored->ImportanceRanking(), forest.ImportanceRanking());
}

TEST(ModelIoTest, FileRoundTrip) {
  const Dataset train = MakeBlobs(2, 40, 0.5, 4);
  RandomForestParams params;
  params.n_estimators = 5;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  const std::string path =
      testing::TempDir() + "/trajkit_model_io/forest.txt";
  ASSERT_TRUE(SaveRandomForest(forest, path).ok());
  const auto loaded = LoadRandomForest(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Predict(train.features()),
            forest.Predict(train.features()));
}

TEST(ModelIoTest, UnfittedForestCannotBeSaved) {
  RandomForest forest;
  EXPECT_FALSE(SaveRandomForest(forest, "/tmp/never.txt").ok());
}

TEST(ModelIoTest, GarbageRejected) {
  EXPECT_FALSE(RandomForest::Deserialize("").ok());
  EXPECT_FALSE(RandomForest::Deserialize("hello world").ok());
  EXPECT_FALSE(
      RandomForest::Deserialize("trajkit_random_forest v1\n").ok());
  EXPECT_FALSE(RandomForest::Deserialize(
                   "trajkit_random_forest v1\n"
                   "params 1 0 0 2 1 0 1 0 42\nclasses 2\ntrees 1\n"
                   "tree 2 0\nnodes 1\n0 0.5 99 99 0\n"
                   "distributions 1 2\n0.5 0.5\nimportances 2\n0 0\n")
                   .ok());  // Child index out of range.
  EXPECT_FALSE(LoadRandomForest("/nonexistent/forest.txt").ok());
}

TEST(ModelIoTest, FutureFormatVersionRejectedCleanly) {
  // A model written by a future trajkit must fail with a clean Status that
  // names the version — not a CHECK-abort or a confusing structural error.
  const Dataset train = MakeBlobs(2, 20, 0.5, 11);
  RandomForestParams params;
  params.n_estimators = 3;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  std::string blob = forest.Serialize();
  const std::string magic = "trajkit_random_forest v1";
  ASSERT_EQ(blob.compare(0, magic.size(), magic), 0);
  blob.replace(0, magic.size(), "trajkit_random_forest v7");

  const auto result = RandomForest::Deserialize(blob);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("v7"), std::string::npos)
      << result.status().ToString();

  // Same via the file path: a clean error, and v1 still loads.
  const std::string dir = testing::TempDir() + "/trajkit_model_io";
  ASSERT_TRUE(WriteStringToFile(dir + "/future.txt", blob).ok());
  EXPECT_FALSE(LoadRandomForest(dir + "/future.txt").ok());
  ASSERT_TRUE(SaveRandomForest(forest, dir + "/current.txt").ok());
  EXPECT_TRUE(LoadRandomForest(dir + "/current.txt").ok());
}

TEST(ModelIoTest, MalformedVersionTagRejected) {
  EXPECT_FALSE(RandomForest::Deserialize("trajkit_random_forest\n").ok());
  EXPECT_FALSE(
      RandomForest::Deserialize("trajkit_random_forest vX\n").ok());
  EXPECT_FALSE(
      RandomForest::Deserialize("trajkit_random_forest 1\n").ok());
}

TEST(ModelIoTest, TruncatedFileRejected) {
  const Dataset train = MakeBlobs(2, 20, 0.5, 5);
  RandomForestParams params;
  params.n_estimators = 3;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  std::string blob = forest.Serialize();
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(RandomForest::Deserialize(blob).ok());
}

TEST(ModelIoTest, CloneOfRestoredForestRetrains) {
  const Dataset train = MakeBlobs(2, 30, 0.5, 6);
  RandomForestParams params;
  params.n_estimators = 4;
  params.seed = 99;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  const auto restored = RandomForest::Deserialize(forest.Serialize());
  ASSERT_TRUE(restored.ok());
  auto clone = restored->Clone();  // Same hyper-parameters, unfitted.
  ASSERT_TRUE(clone->Fit(train).ok());
  EXPECT_EQ(clone->Predict(train.features()),
            forest.Predict(train.features()));
}

// ------------------------------------------------------ Hostile models --

// A one-tree, two-class, two-feature forest file around the given tree
// header depth, node lines and leaf distributions. Deserialize compiles
// the flat form, so every case below must be a ParseError before the
// compile sees it: a cycle used to grow the compile's BFS without bound, an
// out-of-range feature read past the row, and a short header depth made
// the flat descent stop above a leaf.
std::string OneTreeModel(int depth, const std::vector<std::string>& nodes,
                         int num_distributions = 2) {
  std::string text =
      "trajkit_random_forest v1\n"
      "params 1 0 0 2 1 0 1 0 42\nclasses 2\ntrees 1\n";
  text += "tree 2 " + std::to_string(depth) + "\n";
  text += "nodes " + std::to_string(nodes.size()) + "\n";
  for (const std::string& node : nodes) text += node + "\n";
  text += "distributions " + std::to_string(num_distributions) + " 2\n";
  for (int d = 0; d < num_distributions; ++d) {
    text += d % 2 == 0 ? "1 0\n" : "0 1\n";
  }
  text += "importances 2\n1 0\n";
  return text;
}

void ExpectParseError(const std::string& text, const std::string& needle) {
  const Result<RandomForest> result = RandomForest::Deserialize(text);
  ASSERT_FALSE(result.ok()) << "accepted:\n" << text;
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find(needle), std::string::npos)
      << result.status().ToString();
}

TEST(HostileModelTest, WellFormedTreeLoadsCompiled) {
  const Result<RandomForest> forest = RandomForest::Deserialize(OneTreeModel(
      1, {"0 0.5 1 2 -1", "-1 0 -1 -1 0", "-1 0 -1 -1 1"}));
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  ASSERT_NE(forest->flat(), nullptr);
  EXPECT_EQ(forest->Predict(Matrix::FromRows({{0.0, 0.0}, {1.0, 0.0}})),
            (std::vector<int>{0, 1}));
}

TEST(HostileModelTest, CycleIsParseError) {
  // The root is its own left child.
  ExpectParseError(
      OneTreeModel(1, {"0 0.5 0 2 -1", "-1 0 -1 -1 0", "-1 0 -1 -1 1"}),
      "reached twice");
}

TEST(HostileModelTest, ChildSharedByTwoParentsIsParseError) {
  ExpectParseError(OneTreeModel(2, {"0 0.5 1 2 -1", "1 0.5 3 4 -1",
                                    "1 0.7 3 4 -1", "-1 0 -1 -1 0",
                                    "-1 0 -1 -1 1"}),
                   "reached twice");
}

TEST(HostileModelTest, UnreachableNodeIsParseError) {
  ExpectParseError(OneTreeModel(1, {"0 0.5 1 2 -1", "-1 0 -1 -1 0",
                                    "-1 0 -1 -1 1", "-1 0 -1 -1 0"}),
                   "node 3 is unreachable");
}

TEST(HostileModelTest, SplitFeatureOutsideImportanceWidthIsParseError) {
  ExpectParseError(
      OneTreeModel(1, {"100000 0.5 1 2 -1", "-1 0 -1 -1 0", "-1 0 -1 -1 1"}),
      "splits on feature 100000 but the tree has 2 features");
  // A feature past int's range is rejected, not wrapped into a valid one.
  ExpectParseError(OneTreeModel(1, {"4294967296 0.5 1 2 -1", "-1 0 -1 -1 0",
                                    "-1 0 -1 -1 1"}),
                   "out of range");
}

TEST(HostileModelTest, HeaderDepthMismatchIsParseError) {
  ExpectParseError(
      OneTreeModel(0, {"0 0.5 1 2 -1", "-1 0 -1 -1 0", "-1 0 -1 -1 1"}),
      "header says depth 0 but its nodes are 1 deep");
  ExpectParseError(
      OneTreeModel(5, {"0 0.5 1 2 -1", "-1 0 -1 -1 0", "-1 0 -1 -1 1"}),
      "header says depth 5 but its nodes are 1 deep");
}

TEST(HostileModelTest, NodeCountBeyondFileIsParseError) {
  std::string text =
      OneTreeModel(1, {"0 0.5 1 2 -1", "-1 0 -1 -1 0", "-1 0 -1 -1 1"});
  const std::string count = "nodes 3\n";
  text.replace(text.find(count), count.size(), "nodes 4611686018427387904\n");
  ExpectParseError(text, "node count exceeds the model file");
}

// ------------------------------------------------ Balanced class weights --

TEST(BalancedWeightsTest, ImprovesMinorityRecallOnImbalancedData) {
  // 95:5 imbalance with heavy overlap: unweighted trees ignore the
  // minority; balanced weights recover recall.
  Rng rng(7);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 950; ++i) {
    rows.push_back({rng.Gaussian(0.0, 1.0)});
    labels.push_back(0);
  }
  for (int i = 0; i < 50; ++i) {
    rows.push_back({rng.Gaussian(1.0, 1.0)});
    labels.push_back(1);
  }
  auto ds = Dataset::Create(Matrix::FromRows(rows), std::move(labels), {},
                            {}, {"majority", "minority"});

  DecisionTreeParams plain_params;
  plain_params.max_depth = 3;
  DecisionTree plain(plain_params);
  ASSERT_TRUE(plain.Fit(ds.value()).ok());
  DecisionTreeParams balanced_params = plain_params;
  balanced_params.balanced_class_weights = true;
  DecisionTree balanced(balanced_params);
  ASSERT_TRUE(balanced.Fit(ds.value()).ok());

  const auto plain_report = Evaluate(
      ds->labels(), plain.Predict(ds->features()), 2);
  const auto balanced_report = Evaluate(
      ds->labels(), balanced.Predict(ds->features()), 2);
  EXPECT_GT(balanced_report.recall[1], plain_report.recall[1] + 0.2);
}

TEST(BalancedWeightsTest, NoEffectOnBalancedData) {
  const Dataset ds = MakeBlobs(2, 50, 0.4, 8);
  DecisionTree plain;
  DecisionTreeParams params;
  params.balanced_class_weights = true;
  DecisionTree balanced(params);
  ASSERT_TRUE(plain.Fit(ds).ok());
  ASSERT_TRUE(balanced.Fit(ds).ok());
  EXPECT_EQ(plain.Predict(ds.features()), balanced.Predict(ds.features()));
}

TEST(BalancedWeightsTest, ForestForwardsTheOption) {
  Rng rng(9);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 570; ++i) {
    rows.push_back({rng.Gaussian(0.0, 1.0)});
    labels.push_back(0);
  }
  for (int i = 0; i < 30; ++i) {
    rows.push_back({rng.Gaussian(1.2, 1.0)});
    labels.push_back(1);
  }
  auto ds = Dataset::Create(Matrix::FromRows(rows), std::move(labels), {},
                            {}, {"a", "b"});
  RandomForestParams params;
  params.n_estimators = 15;
  params.max_depth = 3;
  RandomForest plain(params);
  params.balanced_class_weights = true;
  RandomForest balanced(params);
  ASSERT_TRUE(plain.Fit(ds.value()).ok());
  ASSERT_TRUE(balanced.Fit(ds.value()).ok());
  const auto plain_report =
      Evaluate(ds->labels(), plain.Predict(ds->features()), 2);
  const auto balanced_report =
      Evaluate(ds->labels(), balanced.Predict(ds->features()), 2);
  EXPECT_GE(balanced_report.recall[1], plain_report.recall[1]);
}

}  // namespace
}  // namespace trajkit::ml
