// Tests for the historical trajectory store (src/store): Hilbert-curve
// properties, bulk-load packing, all three query paths against the
// brute-force oracle (seeded randomized property test,
// thread-count invariance), concurrent ingest-while-query (TSan leg), and
// the segment-log round trip with its error cases.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "store/hilbert.h"
#include "store/trajectory_store.h"

namespace trajkit::store {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------- Hilbert curve --

TEST(HilbertTest, VisitsEveryCellOfTheGridExactlyOnce) {
  // Order 4: a 16x16 grid — small enough to enumerate the whole curve.
  const int order = 4;
  const uint32_t side = 1u << order;
  std::set<uint64_t> seen;
  for (uint32_t y = 0; y < side; ++y) {
    for (uint32_t x = 0; x < side; ++x) {
      const uint64_t d = HilbertDistance(x, y, order);
      EXPECT_LT(d, static_cast<uint64_t>(side) * side);
      EXPECT_TRUE(seen.insert(d).second)
          << "cells (" << x << ", " << y << ") collide at distance " << d;
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(side) * side);
}

TEST(HilbertTest, DistanceAndCellAreInverses) {
  const int order = 6;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const uint32_t x =
        static_cast<uint32_t>(rng.NextBounded(1u << order));
    const uint32_t y =
        static_cast<uint32_t>(rng.NextBounded(1u << order));
    uint32_t rx = 0, ry = 0;
    HilbertCell(HilbertDistance(x, y, order), order, &rx, &ry);
    EXPECT_EQ(rx, x);
    EXPECT_EQ(ry, y);
  }
}

TEST(HilbertTest, ConsecutiveDistancesAreGridNeighbours) {
  // The locality property bulk loading relies on: walking the curve moves
  // one grid step at a time, so nearby distances mean nearby cells.
  const int order = 5;
  uint32_t px = 0, py = 0;
  HilbertCell(0, order, &px, &py);
  const uint64_t cells = 1ull << (2 * order);
  for (uint64_t d = 1; d < cells; ++d) {
    uint32_t x = 0, y = 0;
    HilbertCell(d, order, &x, &y);
    const uint32_t manhattan = (x > px ? x - px : px - x) +
                               (y > py ? y - py : py - y);
    ASSERT_EQ(manhattan, 1u) << "jump at distance " << d;
    px = x;
    py = y;
  }
}

// ------------------------------------------------------------- fixtures --

/// Builds `count` random segments clustered around a city-sized extent.
std::vector<StoredSegment> RandomSegments(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<StoredSegment> segments;
  segments.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    StoredSegment segment;
    segment.session_id = static_cast<int64_t>(i);
    segment.user_id = static_cast<int32_t>(rng.NextBounded(20));
    segment.day = static_cast<int64_t>(rng.NextBounded(30));
    segment.predicted_mode =
        static_cast<traj::Mode>(rng.NextBounded(traj::kNumModes));
    segment.true_mode =
        static_cast<traj::Mode>(rng.NextBounded(traj::kNumModes));
    segment.start_time = rng.Uniform(0.0, 1e6);
    segment.end_time = segment.start_time + rng.Uniform(30.0, 3600.0);
    segment.num_points = static_cast<uint32_t>(rng.NextBounded(500) + 2);
    const double lat = rng.Uniform(39.5, 40.5);
    const double lon = rng.Uniform(116.0, 117.0);
    segment.bbox.Extend(geo::LatLon{lat, lon});
    segment.bbox.Extend(geo::LatLon{lat + rng.Uniform(0.0, 0.05),
                                    lon + rng.Uniform(0.0, 0.05)});
    segment.features = {static_cast<double>(i), 1.0, 2.0};
    segments.push_back(segment);
  }
  return segments;
}

geo::BoundingBox RandomBox(Rng& rng) {
  geo::BoundingBox box;
  const double lat = rng.Uniform(39.4, 40.6);
  const double lon = rng.Uniform(115.9, 117.1);
  box.Extend(geo::LatLon{lat, lon});
  box.Extend(geo::LatLon{lat + rng.Uniform(0.01, 0.4),
                         lon + rng.Uniform(0.01, 0.4)});
  return box;
}

// ----------------------------------------------------------- query paths --

TEST(TrajectoryStoreTest, IndexedQueriesMatchTheOracle) {
  TrajectoryStoreOptions options;
  options.leaf_fanout = 8;  // Small fanouts force a multi-level tree.
  options.fanout = 4;
  TrajectoryStore store(options);
  for (StoredSegment& segment : RandomSegments(700, 42)) {
    store.Ingest(std::move(segment));
  }

  Rng rng(7);
  for (int q = 0; q < 200; ++q) {
    const geo::BoundingBox box = RandomBox(rng);
    TimeRange time;
    if (rng.NextBounded(2) == 0) {
      time.begin = rng.Uniform(0.0, 1e6);
      time.end = time.begin + rng.Uniform(1e3, 5e5);
    }
    ModeMask mask = kAllModesMask;
    if (rng.NextBounded(2) == 0) {
      mask = MaskOf(static_cast<traj::Mode>(
                 rng.NextBounded(traj::kNumModes))) |
             MaskOf(static_cast<traj::Mode>(
                 rng.NextBounded(traj::kNumModes)));
    }
    EXPECT_EQ(store.QueryBBox(box, time, mask),
              store.QueryBBoxBruteForce(box, time, mask))
        << "bbox query " << q << " diverged";
  }

  for (int32_t user = -1; user < 21; ++user) {
    TimeRange time;
    time.begin = 2e5;
    time.end = 8e5;
    EXPECT_EQ(store.QueryUser(user, time),
              store.QueryUserBruteForce(user, time));
  }

  for (const double cell_deg : {0.005, 0.05, 0.25}) {
    EXPECT_EQ(store.TopKHotspots(cell_deg, 10),
              store.TopKHotspotsBruteForce(cell_deg, 10));
    const ModeMask walk = MaskOf(traj::Mode::kWalk);
    EXPECT_EQ(store.TopKHotspots(cell_deg, 5, walk),
              store.TopKHotspotsBruteForce(cell_deg, 5, walk));
  }

  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.segments, 700u);
  EXPECT_GE(stats.index_height, 2u);
  EXPECT_GT(stats.nodes_visited, 0u);
}

TEST(TrajectoryStoreTest, ResultsAreIdenticalAtAnyThreadCount) {
  // The store never fans work out to the pool, but the guarantee callers
  // get is thread-count invariance — pin it with an explicit 1-vs-8 run.
  const auto run = [] {
    TrajectoryStore store;
    for (StoredSegment& segment : RandomSegments(300, 99)) {
      store.Ingest(std::move(segment));
    }
    Rng rng(3);
    std::vector<std::vector<uint32_t>> results;
    for (int q = 0; q < 50; ++q) {
      results.push_back(store.QueryBBox(RandomBox(rng)));
    }
    results.push_back(store.QueryUser(4));
    std::vector<HotspotCell> cells = store.TopKHotspots(0.01, 8);
    std::vector<uint32_t> flattened;
    for (const HotspotCell& cell : cells) {
      flattened.push_back(static_cast<uint32_t>(cell.count));
    }
    results.push_back(flattened);
    return results;
  };
  const int before = MaxThreads();
  SetMaxThreads(1);
  const auto single = run();
  SetMaxThreads(8);
  const auto eight = run();
  SetMaxThreads(before);
  EXPECT_EQ(single, eight);
}

TEST(TrajectoryStoreTest, PostingsFastPathSkipsAndAgrees) {
  TrajectoryStoreOptions options;
  options.postings_selectivity = 4;
  TrajectoryStore store(options);
  // 990 walk segments, 10 bus: a bus-only query is highly selective.
  for (StoredSegment& segment : RandomSegments(1000, 5)) {
    segment.predicted_mode =
        segment.session_id % 100 == 0 ? traj::Mode::kBus : traj::Mode::kWalk;
    store.Ingest(std::move(segment));
  }
  geo::BoundingBox everywhere;
  everywhere.Extend(geo::LatLon{-90.0, -180.0});
  everywhere.Extend(geo::LatLon{90.0, 180.0});
  const ModeMask bus = MaskOf(traj::Mode::kBus);
  const auto indexed = store.QueryBBox(everywhere, TimeRange::All(), bus);
  EXPECT_EQ(indexed,
            store.QueryBBoxBruteForce(everywhere, TimeRange::All(), bus));
  EXPECT_EQ(indexed.size(), 10u);
  // The fast path never examined the walk postings.
  EXPECT_GE(store.stats().postings_skipped, 990u);

  // Disabling the fast path must not change any answer.
  TrajectoryStoreOptions no_fast_path;
  no_fast_path.postings_selectivity = 0;
  TrajectoryStore slow(no_fast_path);
  for (StoredSegment& segment : RandomSegments(1000, 5)) {
    segment.predicted_mode =
        segment.session_id % 100 == 0 ? traj::Mode::kBus : traj::Mode::kWalk;
    slow.Ingest(std::move(segment));
  }
  EXPECT_EQ(slow.QueryBBox(everywhere, TimeRange::All(), bus), indexed);
  EXPECT_EQ(slow.stats().postings_skipped, 0u);
}

TEST(TrajectoryStoreTest, EmptyAndSingleSegmentStoresAnswerQueries) {
  TrajectoryStore store;
  geo::BoundingBox box;
  box.Extend(geo::LatLon{0.0, 0.0});
  box.Extend(geo::LatLon{1.0, 1.0});
  EXPECT_TRUE(store.QueryBBox(box).empty());
  EXPECT_TRUE(store.QueryUser(1).empty());
  EXPECT_TRUE(store.TopKHotspots(0.1, 3).empty());

  StoredSegment only = RandomSegments(1, 1)[0];
  const int32_t user = only.user_id;
  store.Ingest(std::move(only));
  geo::BoundingBox everywhere;
  everywhere.Extend(geo::LatLon{-90.0, -180.0});
  everywhere.Extend(geo::LatLon{90.0, 180.0});
  EXPECT_EQ(store.QueryBBox(everywhere).size(), 1u);
  EXPECT_EQ(store.QueryUser(user).size(), 1u);
  EXPECT_EQ(store.TopKHotspots(0.1, 3).size(), 1u);
}

TEST(TrajectoryStoreTest, IngestAfterQueryTriggersRebuildWithBothAnswers) {
  TrajectoryStore store;
  geo::BoundingBox everywhere;
  everywhere.Extend(geo::LatLon{-90.0, -180.0});
  everywhere.Extend(geo::LatLon{90.0, 180.0});
  std::vector<StoredSegment> segments = RandomSegments(64, 17);
  for (size_t i = 0; i < 32; ++i) store.Ingest(segments[i]);
  EXPECT_EQ(store.QueryBBox(everywhere).size(), 32u);
  EXPECT_EQ(store.stats().bulk_loads, 1u);
  for (size_t i = 32; i < 64; ++i) store.Ingest(segments[i]);
  EXPECT_EQ(store.QueryBBox(everywhere).size(), 64u);
  EXPECT_EQ(store.stats().bulk_loads, 2u);
  // No new segments: querying again must not rebuild.
  (void)store.QueryBBox(everywhere);
  EXPECT_EQ(store.stats().bulk_loads, 2u);
}

// ------------------------------------------------------------ mode masks --

TEST(ParseModeMaskTest, ParsesListsAndRejectsJunk) {
  EXPECT_EQ(ParseModeMask("").value(), kAllModesMask);
  EXPECT_EQ(ParseModeMask("walk").value(), MaskOf(traj::Mode::kWalk));
  EXPECT_EQ(ParseModeMask("walk, bus").value(),
            MaskOf(traj::Mode::kWalk) | MaskOf(traj::Mode::kBus));
  EXPECT_FALSE(ParseModeMask("hovercraft").ok());
}

// ---------------------------------------------------------- session sink --

TEST(TrajectoryStoreTest, SessionSinkIngestsClosedSegmentsWithBbox) {
  serve::SessionOptions session_options;
  session_options.min_points = 2;
  serve::SessionManager sessions(session_options);
  TrajectoryStore store;
  sessions.set_closed_sink([&store](const serve::ClosedSegment& segment) {
    store.Ingest(FromClosedSegment(segment, segment.mode));
  });

  std::vector<serve::ClosedSegment> closed;
  traj::TrajectoryPoint point;
  point.mode = traj::Mode::kWalk;
  for (int i = 0; i < 5; ++i) {
    point.pos = geo::LatLon{39.9 + 1e-4 * i, 116.3 + 1e-4 * i};
    point.timestamp = 1000.0 + 10.0 * i;
    sessions.Ingest(7, point, &closed);
  }
  sessions.FlushAll(&closed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_TRUE(closed[0].bbox.IsInitialized());
  EXPECT_DOUBLE_EQ(closed[0].bbox.min_lat, 39.9);
  EXPECT_DOUBLE_EQ(closed[0].bbox.max_lon, 116.3 + 4e-4);

  ASSERT_EQ(store.size(), 1u);
  const StoredSegment segment = store.Segment(0);
  EXPECT_EQ(segment.predicted_mode, traj::Mode::kWalk);
  EXPECT_EQ(segment.true_mode, traj::Mode::kWalk);
  EXPECT_EQ(segment.user_id, 7);
  EXPECT_EQ(segment.num_points, 5u);
  EXPECT_DOUBLE_EQ(segment.bbox.min_lat, closed[0].bbox.min_lat);
  EXPECT_EQ(store.QueryUser(7).size(), 1u);
}

// ------------------------------------------------------------ segment log --

TEST(SegmentLogTest, RoundTripPreservesEverySegmentExactly) {
  const std::string path = TempPath("trajkit_store_roundtrip.log");
  TrajectoryStore store;
  std::vector<StoredSegment> original = RandomSegments(50, 23);
  // Give one segment points and an uninitialized bbox to cover both
  // optional shapes.
  traj::TrajectoryPoint point;
  point.pos = geo::LatLon{39.99, 116.31};
  point.timestamp = 123.5;
  point.mode = traj::Mode::kBike;
  original[3].points = {point, point};
  original[9].bbox = geo::BoundingBox();
  for (const StoredSegment& segment : original) store.Ingest(segment);
  ASSERT_TRUE(store.SaveTo(path).ok());

  TrajectoryStore loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  ASSERT_EQ(loaded.size(), original.size());
  for (uint32_t i = 0; i < original.size(); ++i) {
    const StoredSegment a = loaded.Segment(i);
    const StoredSegment& b = original[i];
    EXPECT_EQ(a.session_id, b.session_id);
    EXPECT_EQ(a.user_id, b.user_id);
    EXPECT_EQ(a.day, b.day);
    EXPECT_EQ(a.predicted_mode, b.predicted_mode);
    EXPECT_EQ(a.true_mode, b.true_mode);
    EXPECT_EQ(a.start_time, b.start_time);  // Bit-exact, not approximate.
    EXPECT_EQ(a.end_time, b.end_time);
    EXPECT_EQ(a.num_points, b.num_points);
    EXPECT_EQ(a.bbox.min_lat, b.bbox.min_lat);
    EXPECT_EQ(a.bbox.max_lat, b.bbox.max_lat);
    EXPECT_EQ(a.bbox.min_lon, b.bbox.min_lon);
    EXPECT_EQ(a.bbox.max_lon, b.bbox.max_lon);
    EXPECT_EQ(a.features, b.features);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t p = 0; p < a.points.size(); ++p) {
      EXPECT_EQ(a.points[p].pos.lat_deg, b.points[p].pos.lat_deg);
      EXPECT_EQ(a.points[p].timestamp, b.points[p].timestamp);
      EXPECT_EQ(a.points[p].mode, b.points[p].mode);
    }
  }
  std::remove(path.c_str());
}

TEST(SegmentLogTest, LoadingTwoLogsEqualsLoadingTheirConcatenation) {
  const std::string path_a = TempPath("trajkit_store_a.log");
  const std::string path_b = TempPath("trajkit_store_b.log");
  const std::string path_cat = TempPath("trajkit_store_cat.log");
  TrajectoryStore first, second;
  for (const StoredSegment& s : RandomSegments(7, 1)) first.Ingest(s);
  for (const StoredSegment& s : RandomSegments(5, 2)) second.Ingest(s);
  ASSERT_TRUE(first.SaveTo(path_a).ok());
  ASSERT_TRUE(second.SaveTo(path_b).ok());

  // Byte-level concatenation, as `cat a b > c` would produce.
  const std::string merged = ReadFileToString(path_a).value() +
                             ReadFileToString(path_b).value();
  ASSERT_TRUE(WriteStringToFile(path_cat, merged).ok());

  TrajectoryStore via_two_loads, via_cat;
  ASSERT_TRUE(via_two_loads.Load(path_a).ok());
  ASSERT_TRUE(via_two_loads.Load(path_b).ok());
  ASSERT_TRUE(via_cat.Load(path_cat).ok());
  ASSERT_EQ(via_cat.size(), 12u);
  ASSERT_EQ(via_two_loads.size(), via_cat.size());
  for (uint32_t i = 0; i < via_cat.size(); ++i) {
    EXPECT_EQ(via_two_loads.Segment(i).session_id,
              via_cat.Segment(i).session_id);
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::remove(path_cat.c_str());
}

TEST(SegmentLogTest, RejectsMissingTruncatedAndForeignFiles) {
  TrajectoryStore store;
  EXPECT_FALSE(store.Load(TempPath("trajkit_store_nonexistent.log")).ok());

  const std::string bad_magic = TempPath("trajkit_store_bad_magic.log");
  ASSERT_TRUE(WriteStringToFile(bad_magic, "definitely not a log").ok());
  EXPECT_FALSE(store.Load(bad_magic).ok());
  std::remove(bad_magic.c_str());

  // A valid log cut mid-record must fail, not silently drop data.
  const std::string full = TempPath("trajkit_store_full.log");
  TrajectoryStore source;
  for (const StoredSegment& s : RandomSegments(3, 9)) source.Ingest(s);
  ASSERT_TRUE(source.SaveTo(full).ok());
  const std::string bytes = ReadFileToString(full).value();
  const std::string truncated_path = TempPath("trajkit_store_truncated.log");
  ASSERT_TRUE(
      WriteStringToFile(truncated_path,
                        std::string_view(bytes).substr(0, bytes.size() - 11))
          .ok());
  EXPECT_FALSE(store.Load(truncated_path).ok());
  std::remove(full.c_str());
  std::remove(truncated_path.c_str());

  // A non-finite time or bbox edge would slip past the node bounds and
  // overflow the hotspot grid casts: the load names the field and fails.
  const std::string hostile = TempPath("trajkit_store_hostile.log");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, double StoredSegment::*>> times = {
      {"start_time", &StoredSegment::start_time},
      {"end_time", &StoredSegment::end_time}};
  const std::vector<std::pair<std::string, double geo::BoundingBox::*>>
      edges = {{"bbox.min_lat", &geo::BoundingBox::min_lat},
               {"bbox.max_lat", &geo::BoundingBox::max_lat},
               {"bbox.min_lon", &geo::BoundingBox::min_lon},
               {"bbox.max_lon", &geo::BoundingBox::max_lon}};
  const auto expect_rejected = [&](const std::vector<StoredSegment>& segments,
                                   const std::string& field) {
    TrajectoryStore poisoned;
    for (const StoredSegment& s : segments) poisoned.Ingest(s);
    ASSERT_TRUE(poisoned.SaveTo(hostile).ok());
    const Status status = store.Load(hostile);
    EXPECT_FALSE(status.ok()) << field << " accepted";
    EXPECT_NE(status.message().find(field), std::string::npos)
        << status.message();
  };
  for (const double bad : {nan, inf, -inf}) {
    for (const auto& [field, member] : times) {
      std::vector<StoredSegment> segments = RandomSegments(4, 10);
      segments[2].*member = bad;
      expect_rejected(segments, field);
    }
    for (const auto& [field, member] : edges) {
      std::vector<StoredSegment> segments = RandomSegments(4, 10);
      segments[2].bbox.*member = bad;
      expect_rejected(segments, field);
    }
  }
  EXPECT_EQ(store.size(), 0u)
      << "failed loads must not leave partial segments behind";

  // The uninitialized-box sentinel (90/-90/180/-180) is finite and loads.
  std::vector<StoredSegment> segments = RandomSegments(4, 10);
  segments[2].bbox = geo::BoundingBox();
  TrajectoryStore sentinel;
  for (const StoredSegment& s : segments) sentinel.Ingest(s);
  ASSERT_TRUE(sentinel.SaveTo(hostile).ok());
  EXPECT_TRUE(store.Load(hostile).ok());
  EXPECT_EQ(store.size(), 4u);
  std::remove(hostile.c_str());
}

// ------------------------------------------------------------ concurrency --

TEST(TrajectoryStoreConcurrencyTest, IngestWhileQueryingIsSafe) {
  // Writers append while readers run every query shape; under TSan this
  // pins the single-mutex protocol (lazy rebuild included) as race-free.
  TrajectoryStore store;
  for (const StoredSegment& s : RandomSegments(200, 31)) store.Ingest(s);

  std::vector<StoredSegment> extra = RandomSegments(400, 32);
  std::thread writer([&store, &extra] {
    for (StoredSegment& segment : extra) store.Ingest(std::move(segment));
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&store, t] {
      Rng rng(100 + t);
      for (int q = 0; q < 60; ++q) {
        const geo::BoundingBox box = RandomBox(rng);
        const auto ids = store.QueryBBox(box);
        // Whatever snapshot the query saw, it must agree with itself:
        // ascending ids, all below the size at some consistent instant.
        for (size_t i = 1; i < ids.size(); ++i) {
          ASSERT_LT(ids[i - 1], ids[i]);
        }
        (void)store.QueryUser(static_cast<int32_t>(rng.NextBounded(20)));
        (void)store.TopKHotspots(0.02, 5);
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  ASSERT_EQ(store.size(), 600u);
  geo::BoundingBox everywhere;
  everywhere.Extend(geo::LatLon{-90.0, -180.0});
  everywhere.Extend(geo::LatLon{90.0, 180.0});
  EXPECT_EQ(store.QueryBBox(everywhere).size(), 600u);
}

}  // namespace
}  // namespace trajkit::store
