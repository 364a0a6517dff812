// Tests for the real-GeoLife directory reader (PLT + labels.txt parsing).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/csv.h"
#include "geolife/geolife_reader.h"
#include "traj/types.h"

namespace trajkit::geolife {
namespace {

constexpr char kPltSample[] =
    "Geolife trajectory\n"
    "WGS 84\n"
    "Altitude is in Feet\n"
    "Reserved 3\n"
    "0,2,255,My Track,0,0,2,8421376\n"
    "0\n"
    "39.984702,116.318417,0,492,39744.1201851852,2008-10-23,02:53:04\n"
    "39.984683,116.31845,0,492,39744.1202546296,2008-10-23,02:53:10\n"
    "39.984686,116.318417,0,492,39744.1203240741,2008-10-23,02:53:15\n";

constexpr char kLabelsSample[] =
    "Start Time\tEnd Time\tTransportation Mode\n"
    "2008/10/23 02:53:00\t2008/10/23 02:53:12\twalk\n"
    "2008/10/23 02:53:13\t2008/10/23 03:10:00\tbus\n";

TEST(GeoLifeDateTimeTest, ParsesSlashAndDashFormats) {
  const auto a = ParseGeoLifeDateTime("2008/10/23", "02:53:04");
  const auto b = ParseGeoLifeDateTime("2008-10-23", "02:53:04");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a.value(), b.value());
  // 2008-10-23 00:00 UTC = 1224720000; 02:53:04 = +10384 s.
  EXPECT_DOUBLE_EQ(a.value(), 1224720000.0 + 10384.0);
}

TEST(GeoLifeDateTimeTest, EpochReference) {
  const auto epoch = ParseGeoLifeDateTime("1970/01/01", "00:00:00");
  ASSERT_TRUE(epoch.ok());
  EXPECT_DOUBLE_EQ(epoch.value(), 0.0);
}

TEST(GeoLifeDateTimeTest, RejectsGarbage) {
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/10", "02:53:04").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/10/23", "0253").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/13/23", "02:53:04").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/10/23", "25:00:00").ok());
}

// A field that does not fit an int, or a year beyond four digits, is
// rejected before any narrowing: 2^31 used to overflow the civil-date
// arithmetic, and 2^32 + 2008 wrapped to 2008.
TEST(GeoLifeDateTimeTest, RejectsOutOfRangeFields) {
  EXPECT_FALSE(ParseGeoLifeDateTime("2147483648/01/01", "00:00:00").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("4294969304/01/01", "00:00:00").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("10000/01/01", "00:00:00").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("-1/01/01", "00:00:00").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/4294967297/01", "00:00:00").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/01/01", "4294967296:00:00").ok());
  const auto last = ParseGeoLifeDateTime("9999/12/31", "23:59:59");
  ASSERT_TRUE(last.ok());
  EXPECT_DOUBLE_EQ(last.value(), 253402300799.0);
}

TEST(PltParserTest, ParsesSampleWithPreamble) {
  const auto points = ParsePltText(kPltSample);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 3u);
  EXPECT_NEAR((*points)[0].pos.lat_deg, 39.984702, 1e-9);
  EXPECT_NEAR((*points)[0].pos.lon_deg, 116.318417, 1e-9);
  EXPECT_EQ((*points)[0].mode, traj::Mode::kUnknown);
  EXPECT_LT((*points)[0].timestamp, (*points)[1].timestamp);
}

TEST(PltParserTest, SkipsInvalidRows) {
  std::string text(kPltSample);
  text += "not,a,valid,row,x,y,z\n";
  text += "999.0,116.3,0,492,39744.13,2008-10-23,02:54:00\n";  // Bad lat.
  const auto points = ParsePltText(text);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 3u);
}

TEST(PltParserTest, SkipsRowsWithOutOfRangeDates) {
  std::string text(kPltSample);
  text += "39.98,116.31,0,492,39744.13,2147483648-10-23,02:54:00\n";
  text += "39.98,116.31,0,492,39744.13,4294969304-10-23,02:54:00\n";
  const auto points = ParsePltText(text);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 3u);
  EXPECT_EQ((*points)[2].timestamp, 1224720000.0 + 10395.0);
}

TEST(LabelsParserTest, SkipsRowsWithOutOfRangeDates) {
  std::string text(kLabelsSample);
  text += "2147483648/10/23 02:53:00\t2008/10/23 02:53:12\twalk\n";
  text += "2008/10/23 02:53:00\t4294969304/10/23 02:53:12\twalk\n";
  const auto intervals = ParseLabelsText(text);
  ASSERT_TRUE(intervals.ok());
  EXPECT_EQ(intervals->size(), 2u);
}

TEST(PltParserTest, SortsOutOfOrderFixes) {
  std::string text =
      "h1\nh2\nh3\nh4\nh5\nh6\n"
      "39.98,116.31,0,0,0,2008-10-23,02:55:00\n"
      "39.99,116.32,0,0,0,2008-10-23,02:53:00\n";
  const auto points = ParsePltText(text);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 2u);
  EXPECT_LT((*points)[0].timestamp, (*points)[1].timestamp);
  EXPECT_NEAR((*points)[0].pos.lat_deg, 39.99, 1e-9);
}

TEST(LabelsParserTest, ParsesIntervals) {
  const auto intervals = ParseLabelsText(kLabelsSample);
  ASSERT_TRUE(intervals.ok());
  ASSERT_EQ(intervals->size(), 2u);
  EXPECT_EQ((*intervals)[0].mode, traj::Mode::kWalk);
  EXPECT_EQ((*intervals)[1].mode, traj::Mode::kBus);
  EXPECT_LT((*intervals)[0].start_time, (*intervals)[0].end_time);
}

TEST(LabelsParserTest, SkipsUnknownModes) {
  const std::string text =
      "Start Time\tEnd Time\tTransportation Mode\n"
      "2008/10/23 02:53:00\t2008/10/23 02:53:12\thovercraft\n"
      "2008/10/23 02:54:00\t2008/10/23 02:55:00\twalk\n";
  const auto intervals = ParseLabelsText(text);
  ASSERT_TRUE(intervals.ok());
  ASSERT_EQ(intervals->size(), 1u);
  EXPECT_EQ((*intervals)[0].mode, traj::Mode::kWalk);
}

TEST(ApplyLabelsTest, AssignsByInterval) {
  auto points = ParsePltText(kPltSample);
  ASSERT_TRUE(points.ok());
  auto intervals = ParseLabelsText(kLabelsSample);
  ASSERT_TRUE(intervals.ok());
  ApplyLabels(std::move(intervals).value(), points.value());
  // 02:53:04 and 02:53:10 fall in the walk interval; 02:53:15 in bus.
  EXPECT_EQ((*points)[0].mode, traj::Mode::kWalk);
  EXPECT_EQ((*points)[1].mode, traj::Mode::kWalk);
  EXPECT_EQ((*points)[2].mode, traj::Mode::kBus);
}

TEST(ApplyLabelsTest, PointsOutsideIntervalsStayUnknown) {
  auto points = ParsePltText(kPltSample);
  ASSERT_TRUE(points.ok());
  std::vector<LabelInterval> intervals = {
      {0.0, 1.0, traj::Mode::kWalk}};  // Far in the past.
  ApplyLabels(intervals, points.value());
  for (const auto& p : points.value()) {
    EXPECT_EQ(p.mode, traj::Mode::kUnknown);
  }
}

TEST(ApplyLabelsTest, UnsortedIntervalsHandled) {
  auto points = ParsePltText(kPltSample);
  ASSERT_TRUE(points.ok());
  auto intervals = ParseLabelsText(kLabelsSample).value();
  std::swap(intervals[0], intervals[1]);  // Unsort.
  ApplyLabels(std::move(intervals), points.value());
  EXPECT_EQ((*points)[0].mode, traj::Mode::kWalk);
  EXPECT_EQ((*points)[2].mode, traj::Mode::kBus);
}

TEST(WritePltTest, RoundTripsThroughParser) {
  auto original = ParsePltText(kPltSample).value();
  const std::string text = WritePltText(original);
  const auto reparsed = ParsePltText(text);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR((*reparsed)[i].pos.lat_deg, original[i].pos.lat_deg, 1e-6);
    EXPECT_NEAR((*reparsed)[i].pos.lon_deg, original[i].pos.lon_deg, 1e-6);
    EXPECT_NEAR((*reparsed)[i].timestamp, original[i].timestamp, 1.0);
  }
}

class GeoLifeDirectoryTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(testing::TempDir()) /
            "trajkit_geolife_test";
    std::filesystem::remove_all(root_);
    const auto user_dir = root_ / "000";
    std::filesystem::create_directories(user_dir / "Trajectory");
    ASSERT_TRUE(WriteStringToFile(
                    (user_dir / "Trajectory" / "20081023025304.plt")
                        .string(),
                    kPltSample)
                    .ok());
    ASSERT_TRUE(WriteStringToFile((user_dir / "labels.txt").string(),
                                  kLabelsSample)
                    .ok());
    // A second, unlabelled user.
    const auto user_dir2 = root_ / "001";
    std::filesystem::create_directories(user_dir2 / "Trajectory");
    ASSERT_TRUE(WriteStringToFile(
                    (user_dir2 / "Trajectory" / "a.plt").string(),
                    kPltSample)
                    .ok());
    // A non-user directory that must be skipped.
    std::filesystem::create_directories(root_ / "README_dir");
  }

  void TearDown() override { std::filesystem::remove_all(root_); }

  std::filesystem::path root_;
};

TEST_F(GeoLifeDirectoryTest, LoadsLabelledUser) {
  const auto user = LoadGeoLifeUser((root_ / "000").string(), 0);
  ASSERT_TRUE(user.ok());
  EXPECT_EQ(user->user_id, 0);
  ASSERT_EQ(user->points.size(), 3u);
  EXPECT_EQ(user->points[0].mode, traj::Mode::kWalk);
  EXPECT_EQ(user->points[2].mode, traj::Mode::kBus);
}

TEST_F(GeoLifeDirectoryTest, LoadsUnlabelledUser) {
  const auto user = LoadGeoLifeUser((root_ / "001").string(), 1);
  ASSERT_TRUE(user.ok());
  for (const auto& p : user->points) {
    EXPECT_EQ(p.mode, traj::Mode::kUnknown);
  }
}

TEST_F(GeoLifeDirectoryTest, LoadsWholeCorpusSkippingNonUsers) {
  const auto corpus = LoadGeoLifeCorpus(root_.string());
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->size(), 2u);
  EXPECT_EQ((*corpus)[0].user_id, 0);
  EXPECT_EQ((*corpus)[1].user_id, 1);
}

TEST_F(GeoLifeDirectoryTest, MissingDirectoryIsNotFound) {
  EXPECT_FALSE(LoadGeoLifeCorpus((root_ / "missing").string()).ok());
  EXPECT_FALSE(LoadGeoLifeUser((root_ / "missing").string(), 9).ok());
}

}  // namespace
}  // namespace trajkit::geolife
