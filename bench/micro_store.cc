// micro_store — bulk-load and query performance of the trajectory store.
//
// Builds a synthetic corpus of closed segments directly (no model in the
// loop — this measures the store, not the predictor), then times:
//   A. ingest:    appending --segments segments (index stays lazy).
//   B. bulk load: one explicit BuildIndex() — the Hilbert R-tree pack.
//   C. bbox:      --queries random bbox+time+mode queries through the
//                 index, with per-query latency p50/p99.
//   D. scan:      the same queries through the brute-force oracle. Every
//                 indexed result must be byte-identical to its oracle
//                 result, and the aggregate speedup must clear
//                 --min_speedup (default 10x) or the harness exits 1 —
//                 this is the perf gate of DESIGN.md §12.
//   E. user/hotspot: QueryUser over every user and TopKHotspots at two
//                 cell sizes, as secondary timings.
//
// Flags: --segments=20000 --queries=400 --seed=7 --min_speedup=10
// --leaf_fanout/--fanout, --timing_json=FILE plus the shared
// --threads/--metrics_json.
//
//   ./micro_store --segments=20000 --timing_json=BENCH_store.json

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "geo/geodesy.h"
#include "stats/descriptive.h"
#include "store/trajectory_store.h"
#include "traj/types.h"

namespace trajkit::bench {
namespace {

/// One synthetic closed segment around the Beijing extent the experiments
/// use: a small random MBR, a random day-scale time interval, and a mode
/// drawn non-uniformly so the postings lists have realistic skew.
store::StoredSegment MakeSegment(Rng& rng, int64_t id) {
  store::StoredSegment segment;
  segment.session_id = id;
  segment.user_id = static_cast<int32_t>(rng.NextBounded(64));
  segment.day = static_cast<int64_t>(rng.NextBounded(30));
  // Walk/bus/car dominate; the tail modes stay rare (postings skew).
  const double roll = rng.NextDouble();
  segment.predicted_mode = roll < 0.4   ? traj::Mode::kWalk
                           : roll < 0.7 ? traj::Mode::kBus
                           : roll < 0.9 ? traj::Mode::kCar
                                        : traj::Mode::kTrain;
  segment.true_mode = segment.predicted_mode;
  segment.start_time = rng.Uniform(0.0, 30.0 * 86400.0);
  segment.end_time = segment.start_time + rng.Uniform(60.0, 3600.0);
  segment.num_points = static_cast<uint32_t>(10 + rng.NextBounded(200));
  const double lat = rng.Uniform(39.5, 40.5);
  const double lon = rng.Uniform(116.0, 117.0);
  segment.bbox.Extend(geo::LatLon{lat, lon});
  segment.bbox.Extend(geo::LatLon{lat + rng.Uniform(0.0, 0.02),
                                  lon + rng.Uniform(0.0, 0.02)});
  segment.features = {static_cast<double>(id % 7), 1.0, 2.0};
  return segment;
}

struct BBoxQuery {
  geo::BoundingBox box;
  store::TimeRange time;
  store::ModeMask mask = store::kAllModesMask;
};

/// Random query mix: mostly small boxes (selective), some wide ones, a
/// third with a time window, a third mode-filtered (postings fast path).
BBoxQuery MakeQuery(Rng& rng) {
  BBoxQuery query;
  const double lat = rng.Uniform(39.5, 40.5);
  const double lon = rng.Uniform(116.0, 117.0);
  const double extent = rng.NextDouble() < 0.8 ? rng.Uniform(0.01, 0.05)
                                               : rng.Uniform(0.2, 0.5);
  query.box.Extend(geo::LatLon{lat, lon});
  query.box.Extend(geo::LatLon{lat + extent, lon + extent});
  if (rng.NextDouble() < 1.0 / 3.0) {
    query.time.begin = rng.Uniform(0.0, 25.0 * 86400.0);
    query.time.end = query.time.begin + rng.Uniform(3600.0, 5.0 * 86400.0);
  }
  const double mode_roll = rng.NextDouble();
  if (mode_roll < 1.0 / 6.0) {
    query.mask = store::MaskOf(traj::Mode::kTrain);  // rare: fast path
  } else if (mode_roll < 1.0 / 3.0) {
    query.mask = store::MaskOf(traj::Mode::kWalk) |
                 store::MaskOf(traj::Mode::kBus);
  }
  return query;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const HarnessOptions harness = HarnessOptions::FromFlags(flags);
  harness.ApplyThreads();
  TimingJson timings("micro_store", harness);

  const size_t num_segments =
      static_cast<size_t>(flags.GetInt("segments", 20000));
  const size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 400));
  const double min_speedup = flags.GetDouble("min_speedup", 10.0);
  Rng rng(flags.GetUint64("seed", 7));

  store::TrajectoryStoreOptions options;
  options.leaf_fanout = static_cast<size_t>(
      flags.GetInt("leaf_fanout", static_cast<int>(options.leaf_fanout)));
  options.fanout =
      static_cast<size_t>(flags.GetInt("fanout", static_cast<int>(options.fanout)));
  store::TrajectoryStore trajectory_store(options);

  std::vector<store::StoredSegment> corpus;
  corpus.reserve(num_segments);
  for (size_t i = 0; i < num_segments; ++i) {
    corpus.push_back(MakeSegment(rng, static_cast<int64_t>(i)));
  }
  std::vector<BBoxQuery> queries;
  queries.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) queries.push_back(MakeQuery(rng));

  // Phase A: ingest (no index work — that is the point of lazy builds).
  Stopwatch watch;
  for (store::StoredSegment& segment : corpus) {
    trajectory_store.Ingest(std::move(segment));
  }
  const double ingest_seconds = watch.ElapsedSeconds();

  // Phase B: one explicit bulk load.
  watch.Reset();
  trajectory_store.BuildIndex();
  const double bulk_load_seconds = watch.ElapsedSeconds();

  // Phase C: indexed bbox queries with per-query latencies.
  std::vector<std::vector<uint32_t>> indexed;
  indexed.reserve(num_queries);
  std::vector<double> latencies;
  latencies.reserve(num_queries);
  watch.Reset();
  Stopwatch per_query;
  for (const BBoxQuery& query : queries) {
    per_query.Reset();
    indexed.push_back(
        trajectory_store.QueryBBox(query.box, query.time, query.mask));
    latencies.push_back(per_query.ElapsedSeconds());
  }
  const double index_seconds = watch.ElapsedSeconds();
  const double p50 = stats::Percentile(latencies, 50.0);
  const double p99 = stats::Percentile(latencies, 99.0);

  // Phase D: the oracle scan over the identical query set, plus the
  // result-identity and speedup gates.
  size_t hits = 0;
  watch.Reset();
  for (size_t i = 0; i < num_queries; ++i) {
    const std::vector<uint32_t> oracle = trajectory_store.QueryBBoxBruteForce(
        queries[i].box, queries[i].time, queries[i].mask);
    if (oracle != indexed[i]) {
      std::fprintf(stderr,
                   "micro_store: query %zu: index returned %zu ids, oracle "
                   "%zu — results must be identical\n",
                   i, indexed[i].size(), oracle.size());
      return 1;
    }
    hits += oracle.size();
  }
  const double scan_seconds = watch.ElapsedSeconds();
  const double speedup = index_seconds > 0.0 ? scan_seconds / index_seconds
                                             : 0.0;

  // Phase E: user and hotspot query timings.
  watch.Reset();
  size_t user_hits = 0;
  for (int32_t user = 0; user < 64; ++user) {
    user_hits += trajectory_store.QueryUser(user).size();
  }
  const double user_seconds = watch.ElapsedSeconds();
  watch.Reset();
  const auto coarse = trajectory_store.TopKHotspots(0.05, 10);
  const auto fine = trajectory_store.TopKHotspots(
      0.005, 10, store::MaskOf(traj::Mode::kWalk));
  const double hotspot_seconds = watch.ElapsedSeconds();

  const store::StoreStats stats = trajectory_store.stats();
  std::printf("micro_store: %zu segments, %zu queries, %zu hits\n",
              trajectory_store.size(), num_queries, hits);
  std::printf("  ingest     %9.3f ms\n", ingest_seconds * 1e3);
  std::printf("  bulk load  %9.3f ms  (%zu nodes, height %zu)\n",
              bulk_load_seconds * 1e3, stats.index_nodes, stats.index_height);
  std::printf("  bbox index %9.3f ms  (p50 %.1f us, p99 %.1f us)\n",
              index_seconds * 1e3, p50 * 1e6, p99 * 1e6);
  std::printf("  bbox scan  %9.3f ms  -> speedup %.1fx\n", scan_seconds * 1e3,
              speedup);
  std::printf("  users      %9.3f ms  (%zu hits)\n", user_seconds * 1e3,
              user_hits);
  std::printf("  hotspots   %9.3f ms  (top cells %llu / %llu)\n",
              hotspot_seconds * 1e3,
              coarse.empty() ? 0ULL
                             : static_cast<unsigned long long>(coarse[0].count),
              fine.empty() ? 0ULL
                           : static_cast<unsigned long long>(fine[0].count));

  timings.Record("ingest_s", ingest_seconds);
  timings.Record("bulk_load_s", bulk_load_seconds);
  timings.Record("query_bbox_index_s", index_seconds);
  timings.Record("query_bbox_p50_s", p50);
  timings.Record("query_bbox_p99_s", p99);
  timings.Record("query_bbox_scan_s", scan_seconds);
  timings.Record("query_user_s", user_seconds);
  timings.Record("hotspots_s", hotspot_seconds);
  if (!timings.Write()) return 1;

  if (speedup < min_speedup) {
    std::fprintf(stderr,
                 "micro_store: indexed bbox queries only %.1fx faster than "
                 "the oracle scan (gate: %.1fx)\n",
                 speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace trajkit::bench

int main(int argc, char** argv) { return trajkit::bench::Main(argc, argv); }
