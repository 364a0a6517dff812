// Tests for the core framework: label sets, the 8-step pipeline, and the
// experiment helpers.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "geo/geodesy.h"
#include "obs/metrics.h"
#include "synthgeo/generator.h"
#include "traj/trajectory_features.h"

namespace trajkit::core {
namespace {

using traj::Mode;

// ------------------------------------------------------------- LabelSet --

TEST(LabelSetTest, DabiriMergesDrivingAndTrain) {
  const LabelSet labels = LabelSet::Dabiri();
  EXPECT_EQ(labels.num_classes(), 5);
  EXPECT_EQ(labels.ClassOf(Mode::kCar), labels.ClassOf(Mode::kTaxi));
  EXPECT_EQ(labels.ClassOf(Mode::kTrain), labels.ClassOf(Mode::kSubway));
  EXPECT_NE(labels.ClassOf(Mode::kWalk), labels.ClassOf(Mode::kBike));
  EXPECT_EQ(labels.ClassOf(Mode::kAirplane), -1);
  EXPECT_EQ(labels.ClassOf(Mode::kUnknown), -1);
  EXPECT_EQ(labels.class_names()[3], "driving");
}

TEST(LabelSetTest, EndoKeepsSevenDistinct) {
  const LabelSet labels = LabelSet::Endo();
  EXPECT_EQ(labels.num_classes(), 7);
  std::set<int> classes;
  for (Mode mode : {Mode::kWalk, Mode::kBike, Mode::kBus, Mode::kCar,
                    Mode::kTaxi, Mode::kSubway, Mode::kTrain}) {
    const int cls = labels.ClassOf(mode);
    EXPECT_GE(cls, 0);
    EXPECT_TRUE(classes.insert(cls).second) << "duplicate class";
  }
  EXPECT_EQ(labels.ClassOf(Mode::kBoat), -1);
}

TEST(LabelSetTest, AllModesCoversEleven) {
  const LabelSet labels = LabelSet::AllModes();
  EXPECT_EQ(labels.num_classes(), 11);
  for (Mode mode : traj::AllLabeledModes()) {
    EXPECT_GE(labels.ClassOf(mode), 0);
  }
  EXPECT_EQ(labels.ClassOf(Mode::kUnknown), -1);
}

// -------------------------------------------------------------- Pipeline --

std::vector<traj::Trajectory> SmallCorpus(uint64_t seed = 3) {
  synthgeo::GeneratorOptions options;
  options.num_users = 8;
  options.days_per_user = 2;
  options.seed = seed;
  synthgeo::GeoLifeLikeGenerator generator(options);
  return generator.Generate();
}

TEST(PipelineTest, BuildsSeventyFeatureDataset) {
  const Pipeline pipeline;
  const auto dataset =
      pipeline.BuildDataset(SmallCorpus(), LabelSet::Dabiri());
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->num_features(), 70u);
  EXPECT_GT(dataset->num_samples(), 20u);
  EXPECT_EQ(dataset->num_classes(), 5);
  EXPECT_EQ(dataset->feature_names(),
            traj::TrajectoryFeatureExtractor::FeatureNames());
  // Group ids are user ids.
  const auto groups = dataset->DistinctGroups();
  EXPECT_GT(groups.size(), 1u);
  for (int g : groups) {
    EXPECT_GE(g, 0);
    EXPECT_LT(g, 8);
  }
  const PipelineStats& stats = pipeline.stats();
  EXPECT_GE(stats.segments_total, stats.segments_in_label_set);
  EXPECT_EQ(stats.segments_in_label_set, dataset->num_samples());
}

TEST(PipelineTest, LabelSetFiltersClasses) {
  const Pipeline pipeline;
  const auto corpus = SmallCorpus(5);
  const auto dabiri = pipeline.BuildDataset(corpus, LabelSet::Dabiri());
  const auto endo = pipeline.BuildDataset(corpus, LabelSet::Endo());
  ASSERT_TRUE(dabiri.ok());
  ASSERT_TRUE(endo.ok());
  // Endo keeps the same underlying modes (no boat/airplane/run/motorcycle
  // in either), so sample counts match; class counts differ.
  EXPECT_EQ(dabiri->num_classes(), 5);
  EXPECT_EQ(endo->num_classes(), 7);
}

TEST(PipelineTest, NoiseRemovalOptionRuns) {
  PipelineOptions options;
  options.remove_noise = true;
  const Pipeline pipeline(options);
  const auto dataset =
      pipeline.BuildDataset(SmallCorpus(7), LabelSet::Dabiri());
  ASSERT_TRUE(dataset.ok());
  EXPECT_GT(dataset->num_samples(), 10u);
}

TEST(PipelineTest, MinPointsControlsSegmentCount) {
  PipelineOptions strict;
  strict.segmentation.min_points = 200;
  PipelineOptions lax;
  lax.segmentation.min_points = 10;
  const auto corpus = SmallCorpus(9);
  const Pipeline strict_pipeline(strict);
  const Pipeline lax_pipeline(lax);
  const auto strict_ds =
      strict_pipeline.BuildDataset(corpus, LabelSet::Dabiri());
  const auto lax_ds = lax_pipeline.BuildDataset(corpus, LabelSet::Dabiri());
  ASSERT_TRUE(lax_ds.ok());
  if (strict_ds.ok()) {
    EXPECT_LT(strict_ds->num_samples(), lax_ds->num_samples());
  }
}

TEST(PipelineTest, EmptyLabelMatchFails) {
  // A corpus with only unknown labels yields an error.
  traj::Trajectory trajectory;
  trajectory.user_id = 0;
  geo::LatLon pos{39.9, 116.4};
  for (int i = 0; i < 50; ++i) {
    trajectory.points.push_back({pos, i * 2.0, Mode::kUnknown});
    pos = geo::Destination(pos, 0.0, 3.0);
  }
  const Pipeline pipeline;
  EXPECT_FALSE(pipeline.BuildDataset({trajectory}, LabelSet::Dabiri()).ok());
}

// Each entry point opens the span/pipeline timer once: BuildDataset times
// segmentation and every later stage, a direct BuildDatasetFromSegments
// call every stage but segmentation. Counts are deltas on the global
// registry, which other tests in this binary also feed.
TEST(PipelineTest, StageTimersObserveOncePerEntryPoint) {
  const std::vector<std::string> names = {
      "span/pipeline", "span/pipeline/segment", "span/pipeline/noise",
      "span/pipeline/extract", "span/pipeline/assemble"};
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto counts = [&] {
    std::vector<uint64_t> out;
    for (const std::string& name : names) {
      out.push_back(
          registry.GetHistogram(name, obs::HistogramOptions::DurationSeconds())
              .count());
    }
    return out;
  };
  PipelineOptions options;
  options.remove_noise = true;  // So the noise stage runs too.
  const Pipeline pipeline(options);
  const std::vector<traj::Trajectory> corpus = SmallCorpus(11);

  const std::vector<uint64_t> before = counts();
  ASSERT_TRUE(pipeline.BuildDataset(corpus, LabelSet::Dabiri()).ok());
  const std::vector<uint64_t> after_build = counts();
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(after_build[i] - before[i], 1u) << names[i];
  }

  std::vector<traj::Segment> segments =
      traj::SegmentCorpus(corpus, options.segmentation);
  ASSERT_TRUE(pipeline
                  .BuildDatasetFromSegments(std::move(segments),
                                            LabelSet::Dabiri())
                  .ok());
  const std::vector<uint64_t> after_direct = counts();
  const std::vector<uint64_t> expected = {1, 0, 1, 1, 1};
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(after_direct[i] - after_build[i], expected[i]) << names[i];
  }
}

// ----------------------------------------------------------- Experiments --

TEST(ExperimentsTest, CvSchemeParsing) {
  EXPECT_EQ(CvSchemeFromString("random").value(), CvScheme::kRandom);
  EXPECT_EQ(CvSchemeFromString("stratified").value(),
            CvScheme::kStratified);
  EXPECT_EQ(CvSchemeFromString("user").value(), CvScheme::kUserOriented);
  EXPECT_EQ(CvSchemeFromString("user_oriented").value(),
            CvScheme::kUserOriented);
  EXPECT_FALSE(CvSchemeFromString("chrono").ok());
  EXPECT_EQ(CvSchemeToString(CvScheme::kRandom), "random");
  EXPECT_EQ(CvSchemeToString(CvScheme::kUserOriented), "user_oriented");
}

TEST(ExperimentsTest, MakeFoldsAllSchemes) {
  const Pipeline pipeline;
  const auto dataset =
      pipeline.BuildDataset(SmallCorpus(11), LabelSet::Dabiri());
  ASSERT_TRUE(dataset.ok());
  for (CvScheme scheme : {CvScheme::kRandom, CvScheme::kStratified,
                          CvScheme::kUserOriented}) {
    const auto folds = MakeFolds(scheme, dataset.value(), 3, 42);
    ASSERT_EQ(folds.size(), 3u) << CvSchemeToString(scheme);
    size_t total_test = 0;
    for (const auto& fold : folds) {
      EXPECT_FALSE(fold.train_indices.empty());
      EXPECT_FALSE(fold.test_indices.empty());
      total_test += fold.test_indices.size();
    }
    EXPECT_EQ(total_test, dataset->num_samples());
  }
}

TEST(ExperimentsTest, UserOrientedFoldsSeparateUsers) {
  const Pipeline pipeline;
  const auto dataset =
      pipeline.BuildDataset(SmallCorpus(13), LabelSet::Dabiri());
  ASSERT_TRUE(dataset.ok());
  const auto folds =
      MakeFolds(CvScheme::kUserOriented, dataset.value(), 4, 42);
  for (const auto& fold : folds) {
    std::set<int> train_users;
    std::set<int> test_users;
    for (size_t i : fold.train_indices) {
      train_users.insert(dataset->groups()[i]);
    }
    for (size_t i : fold.test_indices) {
      test_users.insert(dataset->groups()[i]);
    }
    for (int u : test_users) {
      EXPECT_EQ(train_users.count(u), 0u);
    }
  }
}

TEST(ExperimentsTest, BuildSyntheticDatasetOneCall) {
  synthgeo::GeneratorOptions generator_options;
  generator_options.num_users = 6;
  generator_options.days_per_user = 2;
  generator_options.seed = 15;
  const auto result = BuildSyntheticDataset(generator_options,
                                            PipelineOptions{},
                                            LabelSet::Endo());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.num_features(), 70u);
  EXPECT_GT(result->corpus_summary.total_points, 0u);
  EXPECT_EQ(result->pipeline_stats.segments_in_label_set,
            result->dataset.num_samples());
}

}  // namespace
}  // namespace trajkit::core
