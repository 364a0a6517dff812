// Tests for the CLI support surface: the Flags parser and the GeoLife
// export path the `generate` command uses.

#include <gtest/gtest.h>

#include <filesystem>

#include "common/flags.h"
#include "common/strings.h"
#include "geolife/geolife_reader.h"
#include "synthgeo/generator.h"
#include "traj/types.h"

namespace trajkit {
namespace {

Flags MakeFlags(std::vector<std::string> args) {
  static std::vector<std::string> storage;  // Keeps c_str()s alive.
  storage = std::move(args);
  static std::vector<char*> argv;
  argv.clear();
  argv.push_back(const_cast<char*>("prog"));
  for (std::string& arg : storage) {
    argv.push_back(arg.data());
  }
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, ParsesKeyValueAndBare) {
  const Flags flags =
      MakeFlags({"--users=12", "--verbose", "--rate=0.5", "--name=x y"});
  EXPECT_EQ(flags.GetInt("users", 0), 12);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 0.5);
  EXPECT_EQ(flags.GetString("name", ""), "x y");
  EXPECT_TRUE(flags.Has("users"));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, FallbacksWhenAbsentOrMalformed) {
  const Flags flags = MakeFlags({"--n=notanumber"});
  EXPECT_EQ(flags.GetInt("n", 7), 7);
  EXPECT_EQ(flags.GetInt("absent", -1), -1);
  EXPECT_DOUBLE_EQ(flags.GetDouble("absent", 2.5), 2.5);
  EXPECT_EQ(flags.GetString("absent", "d"), "d");
}

TEST(FlagsTest, GetUint64AcceptsFullWidthSeeds) {
  // 2^63 + 42: far beyond what GetInt's narrowing through int can carry.
  const Flags flags = MakeFlags({"--seed=9223372036854775850"});
  EXPECT_EQ(flags.GetUint64("seed", 0), 9223372036854775850ULL);
  EXPECT_EQ(flags.GetUint64("absent", 17), 17u);
}

TEST(FlagsTest, GetUint64FallsBackOnMalformedOrNegative) {
  const Flags flags = MakeFlags({"--a=notanumber", "--b=-5"});
  EXPECT_EQ(flags.GetUint64("a", 3), 3u);
  EXPECT_EQ(flags.GetUint64("b", 3), 3u);
}

TEST(FlagsTest, StatusNamesTheFirstValueAGetterCouldNotRead) {
  const Flags flags =
      MakeFlags({"--folds=4294967298", "--rate=abc", "--seed=-1", "--k=3"});
  EXPECT_TRUE(flags.status().ok());
  EXPECT_EQ(flags.GetInt("k", 0), 3);
  EXPECT_TRUE(flags.status().ok());
  // 2^32 + 2 parses as int64 but would narrow to 2 through int.
  EXPECT_EQ(flags.GetInt("folds", 5), 5);
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(flags.status().message().find("--folds=4294967298"),
            std::string::npos);
  // Later failures keep the first record.
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.5), 0.5);
  EXPECT_EQ(flags.GetUint64("seed", 9), 9u);
  EXPECT_NE(flags.status().message().find("--folds"), std::string::npos);

  const Flags one_bad = MakeFlags({"--rate=abc"});
  EXPECT_DOUBLE_EQ(one_bad.GetDouble("rate", 0.5), 0.5);
  EXPECT_NE(one_bad.status().message().find("--rate=abc"),
            std::string::npos);
  // Absent flags and GetString/GetBool never record anything.
  const Flags absent = MakeFlags({"--name=abc"});
  EXPECT_EQ(absent.GetInt("missing", 1), 1);
  EXPECT_EQ(absent.GetString("name", ""), "abc");
  EXPECT_TRUE(absent.status().ok());
}

TEST(StringsTest, ParseUint64RoundTrips) {
  EXPECT_EQ(ParseUint64("18446744073709551615").value(),
            18446744073709551615ULL);
  EXPECT_EQ(ParseUint64("0").value(), 0u);
  EXPECT_FALSE(ParseUint64("-1").ok());
  EXPECT_FALSE(ParseUint64("").ok());
  EXPECT_FALSE(ParseUint64("99999999999999999999999").ok());
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  const Flags flags = MakeFlags({"generate", "--out=x", "extra"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "generate");
  EXPECT_EQ(flags.positional()[1], "extra");
}

TEST(FlagsTest, BoolFalseSpellings) {
  const Flags flags = MakeFlags({"--a=0", "--b=false", "--c=true"});
  EXPECT_FALSE(flags.GetBool("a", true));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
}

// ------------------------------------------------------ GeoLife export --

TEST(GeoLifeExportTest, FormatDateTimeInvertsParse) {
  const double t = 1224730384.0;  // 2008-10-23 02:53:04 UTC.
  const std::string formatted = geolife::FormatGeoLifeDateTime(t);
  EXPECT_EQ(formatted, "2008/10/23 02:53:04");
  const auto parts = SplitString(formatted, ' ');
  const auto parsed = geolife::ParseGeoLifeDateTime(parts[0], parts[1]);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed.value(), t);
}

TEST(GeoLifeExportTest, ExportedCorpusReloadsWithLabels) {
  const std::string root =
      (std::filesystem::path(testing::TempDir()) / "trajkit_export_test")
          .string();
  std::filesystem::remove_all(root);

  synthgeo::GeneratorOptions options;
  options.num_users = 3;
  options.days_per_user = 2;
  options.seed = 41;
  synthgeo::GeoLifeLikeGenerator generator(options);
  const std::vector<traj::Trajectory> corpus = generator.Generate();
  ASSERT_TRUE(geolife::ExportGeoLifeCorpus(corpus, root).ok());

  const auto reloaded = geolife::LoadGeoLifeCorpus(root);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->size(), corpus.size());
  for (size_t u = 0; u < corpus.size(); ++u) {
    const auto& original = corpus[u];
    const auto& restored = (*reloaded)[u];
    EXPECT_EQ(restored.user_id, original.user_id);
    ASSERT_EQ(restored.points.size(), original.points.size());
    // Positions survive to PLT precision (1e-6 deg ≈ 0.1 m); timestamps to
    // the second; labels to the written intervals.
    size_t label_matches = 0;
    for (size_t i = 0; i < original.points.size(); ++i) {
      EXPECT_NEAR(restored.points[i].pos.lat_deg,
                  original.points[i].pos.lat_deg, 2e-6);
      EXPECT_NEAR(restored.points[i].timestamp,
                  original.points[i].timestamp, 1.0);
      if (restored.points[i].mode == original.points[i].mode) {
        ++label_matches;
      }
    }
    // Interval rounding can flip a few boundary points, nothing more.
    EXPECT_GT(static_cast<double>(label_matches) /
                  static_cast<double>(original.points.size()),
              0.99);
  }
  std::filesystem::remove_all(root);
}

TEST(GeoLifeExportTest, ExportCreatesExpectedLayout) {
  const std::string root =
      (std::filesystem::path(testing::TempDir()) / "trajkit_layout_test")
          .string();
  std::filesystem::remove_all(root);
  synthgeo::GeneratorOptions options;
  options.num_users = 1;
  options.days_per_user = 2;
  options.seed = 43;
  synthgeo::GeoLifeLikeGenerator generator(options);
  ASSERT_TRUE(
      geolife::ExportGeoLifeCorpus(generator.Generate(), root).ok());
  EXPECT_TRUE(std::filesystem::is_directory(
      std::filesystem::path(root) / "000" / "Trajectory"));
  EXPECT_TRUE(std::filesystem::is_regular_file(
      std::filesystem::path(root) / "000" / "labels.txt"));
  size_t plt_count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(root) / "000" / "Trajectory")) {
    if (entry.path().extension() == ".plt") ++plt_count;
  }
  EXPECT_EQ(plt_count, 2u);  // One per day.
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace trajkit
