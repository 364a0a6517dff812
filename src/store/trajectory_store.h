#ifndef TRAJKIT_STORE_TRAJECTORY_STORE_H_
#define TRAJKIT_STORE_TRAJECTORY_STORE_H_

// The read side of the serving system: a historical trajectory store that
// ingests closed segments (MBR + time interval + predicted mode + the 70
// features + optional raw points), answers spatio-temporal queries from an
// in-memory bulk-loaded R-tree with per-mode inverted postings lists, and
// persists itself as an append-only binary segment log. DESIGN.md §12.
//
// Queries are validated against the brute-force oracles below (tests and
// the `micro_store` perf gate compare byte for byte), and every query path
// is instrumented: store.segments, store.query.latency_seconds,
// store.query.nodes_visited, store.query.postings_skipped.

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "geo/geodesy.h"
#include "obs/metrics.h"
#include "serve/session_manager.h"
#include "traj/types.h"

namespace trajkit::store {

/// Closed time interval [begin, end]; the default spans all of time. A
/// segment matches when its own [start_time, end_time] interval overlaps.
struct TimeRange {
  double begin = -std::numeric_limits<double>::infinity();
  double end = std::numeric_limits<double>::infinity();

  static TimeRange All() { return TimeRange{}; }

  bool Overlaps(double start_time, double end_time) const {
    return start_time <= end && begin <= end_time;
  }
};

/// Bit mask over traj::Mode (bit = enum value). Queries match segments
/// whose *predicted* mode bit is set.
using ModeMask = uint32_t;

inline constexpr ModeMask kAllModesMask = (1u << traj::kNumModes) - 1;

inline ModeMask MaskOf(traj::Mode mode) {
  return 1u << static_cast<uint32_t>(mode);
}

/// Parses a comma-separated mode list ("walk,bus") into a mask. The empty
/// string means all modes.
Result<ModeMask> ParseModeMask(std::string_view csv);

/// One persisted segment: what the serving plane knows about a closed
/// sub-trajectory once its prediction resolved.
struct StoredSegment {
  int64_t session_id = 0;
  int32_t user_id = 0;
  int64_t day = 0;
  /// The query key: the mode the serving plane predicted. Falls back to
  /// the annotated mode for segments that were never predicted (outside
  /// the label set, shed, or deadline-exceeded).
  traj::Mode predicted_mode = traj::Mode::kUnknown;
  /// The annotated ground-truth mode (kUnknown on live traffic).
  traj::Mode true_mode = traj::Mode::kUnknown;
  double start_time = 0.0;
  double end_time = 0.0;
  uint32_t num_points = 0;
  /// Minimum bounding rectangle of the segment's fixes.
  geo::BoundingBox bbox;
  /// The 70 trajectory features flushed at close time.
  std::vector<double> features;
  /// Raw fixes, when the producer has them. FromClosedSegment leaves this
  /// empty: the session layer keeps leg columns, not fixes.
  std::vector<traj::TrajectoryPoint> points;
};

/// Converts a closed segment from the session layer. `predicted_mode` is
/// the resolved prediction (pass `segment.mode` when none was made).
StoredSegment FromClosedSegment(const serve::ClosedSegment& segment,
                                traj::Mode predicted_mode);

/// One aggregation cell of TopKHotspots: grid coordinates (floor of the
/// MBR-center latitude/longitude divided by the cell size), the number of
/// matching segments whose center falls inside, and the cell's bounds.
struct HotspotCell {
  int64_t cell_lat = 0;
  int64_t cell_lon = 0;
  uint64_t count = 0;
  geo::BoundingBox bounds;

  friend bool operator==(const HotspotCell& a, const HotspotCell& b) {
    return a.cell_lat == b.cell_lat && a.cell_lon == b.cell_lon &&
           a.count == b.count;
  }
};

/// How the R-tree is packed from the segment MBRs.
enum class BulkLoadStrategy {
  /// Sort MBR centers along an order-16 Hilbert curve over the store's
  /// extent, pack consecutive runs into leaves (Kamel & Faloutsos).
  kHilbert,
  /// Sort-Tile-Recursive: slice by center longitude into vertical slabs,
  /// sort each slab by center latitude, pack (Leutenegger et al.).
  kStr,
};

struct TrajectoryStoreOptions {
  BulkLoadStrategy strategy = BulkLoadStrategy::kHilbert;
  /// Segment entries per leaf node.
  size_t leaf_fanout = 32;
  /// Child nodes per internal node.
  size_t fanout = 8;
  /// The postings fast path is taken when the segments selected by the
  /// query's mode mask are fewer than size() / postings_selectivity —
  /// scanning the (already mode-filtered) postings lists beats walking
  /// the tree. 0 disables the fast path.
  size_t postings_selectivity = 4;
};

/// Cumulative per-instance counters (mirrored into the global metrics
/// registry; kept here so tests can assert without global state).
struct StoreStats {
  size_t segments = 0;
  size_t bulk_loads = 0;
  size_t index_nodes = 0;
  size_t index_height = 0;
  size_t queries = 0;
  size_t nodes_visited = 0;
  /// Segments the postings fast path never had to examine (store size
  /// minus the postings entries actually scanned, summed over queries).
  size_t postings_skipped = 0;
};

/// In-memory spatio-temporal segment store. Thread-safe: Ingest holds an
/// exclusive lock; queries share the same mutex and lazily (re)build the
/// index when segments arrived since the last build, so readers always see
/// a consistent tree. All query results are deterministic functions of the
/// ingested multiset — identical at any worker-thread count — and are
/// returned in ascending segment-id order (id = ingest order).
class TrajectoryStore {
 public:
  explicit TrajectoryStore(TrajectoryStoreOptions options = {});

  /// Appends one segment; its id is the current size(). O(1) amortized —
  /// the spatial index is rebuilt lazily on the next query.
  void Ingest(StoredSegment segment);

  /// Convenience: a sink for SessionManager::set_closed_sink feeding this
  /// store directly from the session layer (predicted mode = annotated
  /// mode — no predictor in that pipeline).
  std::function<void(const serve::ClosedSegment&)> MakeSessionSink();

  size_t size() const;

  /// Copy of segment `id`. Precondition: id < size().
  StoredSegment Segment(uint32_t id) const;

  /// Segments whose MBR intersects `box`, whose time interval overlaps
  /// `time`, and whose predicted mode is in `mask`. Ascending ids.
  std::vector<uint32_t> QueryBBox(const geo::BoundingBox& box,
                                  const TimeRange& time = TimeRange::All(),
                                  ModeMask mask = kAllModesMask) const;

  /// Segments of `user_id` whose time interval overlaps `time`, ascending
  /// ids (which is also ascending close order).
  std::vector<uint32_t> QueryUser(int32_t user_id,
                                  const TimeRange& time = TimeRange::All())
      const;

  /// Top-k cells of a uniform `cell_deg`-degree grid by the number of
  /// matching segments whose MBR center falls inside; count descending,
  /// ties broken by (cell_lat, cell_lon) ascending. Precondition:
  /// cell_deg > 0.
  std::vector<HotspotCell> TopKHotspots(double cell_deg, size_t k,
                                        ModeMask mask = kAllModesMask) const;

  /// Brute-force oracles: linear scans with the exact same match and
  /// ordering semantics, no index involved. The correctness reference for
  /// tests, `trajkit query --oracle`, and the micro_store gate.
  std::vector<uint32_t> QueryBBoxBruteForce(
      const geo::BoundingBox& box, const TimeRange& time = TimeRange::All(),
      ModeMask mask = kAllModesMask) const;
  std::vector<uint32_t> QueryUserBruteForce(
      int32_t user_id, const TimeRange& time = TimeRange::All()) const;
  std::vector<HotspotCell> TopKHotspotsBruteForce(
      double cell_deg, size_t k, ModeMask mask = kAllModesMask) const;

  /// Forces the lazy index build now (bench hook; queries do this
  /// implicitly). No-op when the index is current.
  void BuildIndex();

  /// Writes every segment as an append-only binary log (store/segment
  /// log format v1, see DESIGN.md §12). Creates parent directories.
  Status SaveTo(const std::string& path) const;

  /// Ingests every segment of a log written by SaveTo (or the
  /// concatenation of several). Appends to whatever is already here, so
  /// loading two logs equals loading their concatenation.
  Status Load(const std::string& path);

  StoreStats stats() const;
  const TrajectoryStoreOptions& options() const { return options_; }

 private:
  /// One packed R-tree node. Internal nodes cover a contiguous child
  /// range; leaves cover a contiguous run of `order_` entries. Because
  /// packing is strictly sequential, every subtree also covers a
  /// contiguous `order_` run — [entry_begin, entry_end) — which lets a
  /// query emit a fully covered subtree without touching its segments.
  struct Node {
    double min_lat = 0.0, max_lat = 0.0, min_lon = 0.0, max_lon = 0.0;
    double t_min = 0.0, t_max = 0.0;
    ModeMask mask = 0;
    uint32_t begin = 0;  ///< First child (internal) / order_ entry (leaf).
    uint32_t end = 0;    ///< One past the last.
    uint32_t entry_begin = 0;  ///< Subtree's order_ run, first entry.
    uint32_t entry_end = 0;    ///< One past the subtree's last entry.
    bool leaf = false;
    /// True when every entry below has an initialized MBR. Segments with
    /// uninitialized boxes never match a bbox query, so only pure
    /// subtrees are eligible for the full-containment fast path.
    bool pure = true;
  };

  void BuildIndexLocked() const;
  std::vector<uint32_t> QueryBBoxLocked(const geo::BoundingBox& box,
                                        const TimeRange& time,
                                        ModeMask mask) const;
  std::vector<HotspotCell> TopKHotspotsScan(double cell_deg, size_t k,
                                            ModeMask mask) const;
  bool MatchesLocked(uint32_t id, const geo::BoundingBox& box,
                     const TimeRange& time, ModeMask mask) const;
  /// Same predicate over the columnar key arrays — the hot-path form used
  /// by the index walk and the postings scan (the oracles keep the row
  /// form so both implementations cross-check each other).
  bool MatchesColumnarLocked(uint32_t id, const geo::BoundingBox& box,
                             const TimeRange& time, ModeMask mask) const {
    return (seg_mask_[id] & mask) != 0 && seg_min_lat_[id] <= box.max_lat &&
           box.min_lat <= seg_max_lat_[id] && seg_min_lon_[id] <= box.max_lon &&
           box.min_lon <= seg_max_lon_[id] && seg_t_min_[id] <= time.end &&
           time.begin <= seg_t_max_[id];
  }

  TrajectoryStoreOptions options_;

  /// Process-wide instrumentation, resolved once at construction.
  obs::Counter& metric_segments_;
  obs::Counter& metric_bulk_loads_;
  obs::Counter& metric_queries_;
  obs::Counter& metric_nodes_visited_;
  obs::Counter& metric_postings_skipped_;
  obs::Gauge& metric_size_;
  obs::Gauge& metric_index_nodes_;
  obs::Histogram& metric_query_latency_;
  obs::Histogram& metric_bulk_load_seconds_;

  mutable std::mutex mu_;
  std::vector<StoredSegment> segments_;
  /// MBR centers, cached at ingest (hotspot + bulk-load input).
  std::vector<double> center_lat_;
  std::vector<double> center_lon_;
  /// Columnar copies of the per-segment match keys (MBR, time interval,
  /// mode bit), cached at ingest. The hot per-entry filter reads these
  /// instead of the fat StoredSegment rows — the rows drag feature and
  /// point vectors through the cache. Uninitialized MBRs are stored as an
  /// inverted sentinel interval so every overlap test fails, matching
  /// BoxesOverlap on the row form.
  std::vector<double> seg_min_lat_, seg_max_lat_;
  std::vector<double> seg_min_lon_, seg_max_lon_;
  std::vector<double> seg_t_min_, seg_t_max_;
  std::vector<ModeMask> seg_mask_;
  /// Per-predicted-mode inverted postings: ascending segment ids.
  std::vector<std::vector<uint32_t>> postings_;
  /// Per-user segment ids, ascending.
  std::map<int32_t, std::vector<uint32_t>> by_user_;
  /// R-tree: segment ids in packed leaf order, then the node pool with
  /// the root last. Valid when !dirty_. Mutable: const queries rebuild
  /// lazily and count into stats_, all under mu_.
  mutable std::vector<uint32_t> order_;
  mutable std::vector<Node> nodes_;
  mutable size_t height_ = 0;
  mutable bool dirty_ = false;
  mutable StoreStats stats_;
};

}  // namespace trajkit::store

#endif  // TRAJKIT_STORE_TRAJECTORY_STORE_H_
