#ifndef TRAJKIT_SERVE_SESSION_MANAGER_H_
#define TRAJKIT_SERVE_SESSION_MANAGER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "geo/geodesy.h"
#include "traj/point_features.h"
#include "traj/segmentation.h"
#include "traj/types.h"

namespace trajkit::serve {

/// Configuration of the per-user streaming sessions. The segment-close
/// rules mirror `traj::SegmentationOptions` field-for-field so that a
/// replayed stream closes exactly the segments the offline pipeline cuts;
/// the one extra knob, the max-window rule, bounds each open segment.
struct SessionOptions {
  /// Segments closed with fewer points are discarded (paper §3.2).
  int min_points = 10;
  /// Close the open segment when the (UTC) day changes.
  bool split_on_day = true;
  /// Close the open segment when the annotated mode changes (replay of
  /// labelled corpora; live traffic carries kUnknown throughout).
  bool split_on_mode = true;
  /// Close when the gap to the previous fix exceeds this many seconds;
  /// <= 0 disables gap splitting.
  double max_gap_seconds = 0.0;
  /// Discard closed segments whose mode is kUnknown.
  bool drop_unlabeled = true;
  /// Max-window rule: force-close an open segment once it holds this many
  /// points, bounding the per-session buffers. 0 = unbounded (offline
  /// parity mode).
  size_t max_segment_points = 0;
  /// Options of the point-feature kernel run at ingest and close.
  traj::PointFeatureOptions point_features;
};

/// Why a segment was closed.
enum class CloseReason {
  kModeChange,
  kDayBoundary,
  kTimeGap,
  kMaxWindow,
  kFlush,
};
inline constexpr size_t kNumCloseReasons =
    static_cast<size_t>(CloseReason::kFlush) + 1;

/// Stable lower-case name of a CloseReason ("mode_change", ...).
std::string_view CloseReasonToString(CloseReason reason);

/// One finished sub-trajectory emitted by the session layer, carrying the
/// flushed 70-dim feature vector — the unit of work handed to prediction.
struct ClosedSegment {
  int64_t session_id = 0;
  int user_id = 0;
  int64_t day = 0;
  traj::Mode mode = traj::Mode::kUnknown;
  double start_time = 0.0;
  double end_time = 0.0;
  size_t num_points = 0;
  CloseReason reason = CloseReason::kFlush;
  /// Request trace id minted at close time when tracing is enabled
  /// (obs/request_trace.h); 0 otherwise. Replay propagates it into the
  /// PredictRequest so segment close and prediction share one trace.
  uint64_t trace_id = 0;
  /// Minimum bounding rectangle of the segment's kept fixes, tracked
  /// incrementally at ingest (store/trajectory_store.h indexes it).
  geo::BoundingBox bbox;
  /// The 70 trajectory features (bit-identical to the batch extractor).
  std::vector<double> features;
};

/// Counters of one SessionManager's lifetime: plain integers, written by
/// the manager's single writer. A ServingPlane publishes them to the
/// metrics registry (serving_plane.h).
struct SessionManagerStats {
  size_t points_ingested = 0;
  /// Fixes with a non-finite timestamp or a position that fails
  /// geo::IsValid (the GeoLife reader's filter).
  size_t points_dropped_invalid = 0;
  size_t points_dropped_out_of_order = 0;
  size_t segments_emitted = 0;
  size_t segments_discarded_short = 0;
  size_t segments_discarded_unlabeled = 0;
  /// Emitted segments by close reason, indexed by CloseReason.
  std::array<size_t, kNumCloseReasons> closed{};
};

/// Per-user streaming sessions: points are ingested one at a time, and
/// open segments are closed incrementally by the offline segmentation
/// rules (mode change / day boundary / time gap) plus the serving-only
/// max-window rule. A session ends only at FlushAll (or CloseSession).
/// Single-writer: callers serialize Ingest/Flush (shard across
/// SessionManagers to scale writers; prediction is where the shared
/// thread pool parallelism lives). The manager counts only into its own
/// stats(); it writes no metric.
class SessionManager {
 public:
  explicit SessionManager(SessionOptions options = {})
      : options_(options), slots_(kInitialSlots) {}

  /// Ingests one fix for `session_id`. At most one closed segment (a
  /// boundary or the max-window rule) is appended to `closed`. Invalid
  /// fixes (non-finite timestamp, or a position outside the valid lat/lon
  /// range) are dropped before they reach any session, as the offline
  /// reader drops them; out-of-order fixes (timestamp before the session's
  /// last kept fix) are dropped, mirroring the offline cleaner.
  void Ingest(int64_t session_id, const traj::TrajectoryPoint& point,
              std::vector<ClosedSegment>* closed);

  /// Closes every open segment (ascending session id) and drops all
  /// sessions — end-of-stream / shutdown.
  void FlushAll(std::vector<ClosedSegment>* closed);

  /// Ascending ids of all open sessions.
  std::vector<int64_t> OpenSessionIds() const;

  /// Closes `session_id`'s open segment as `reason` and erases the session.
  /// No-op for unknown ids. FlushAll is built on this; a ServingPlane
  /// calls it directly to interleave closes across shards in globally
  /// ascending session-id order — the exact one-manager close order, which
  /// is what keeps replay output byte-identical at any shard count.
  void CloseSession(int64_t session_id, CloseReason reason,
                    std::vector<ClosedSegment>* closed);

  /// Installs an observer invoked (synchronously, after the segment is
  /// appended to `closed`) for every emitted segment — the hook the
  /// trajectory store ingests through. Replaces any previous sink; pass
  /// an empty function to detach.
  void set_closed_sink(std::function<void(const ClosedSegment&)> sink) {
    closed_sink_ = std::move(sink);
  }

  size_t num_open_sessions() const { return pool_.size(); }
  const SessionManagerStats& stats() const { return stats_; }
  const SessionOptions& options() const { return options_; }

 private:
  struct Session {
    /// Leg columns of the open segment, one entry per fix, index-aligned
    /// with traj::PointFeatures (entry 0 is filled at close).
    std::vector<double> duration;
    std::vector<double> distance;
    std::vector<double> bearing;
    traj::TrajectoryPoint last;  // Last kept fix.
    geo::LatTrig last_trig;      // Its latitude trig, for the next leg.
    geo::BoundingBox bbox;  // MBR of the open segment's kept fixes.
    int64_t day = 0;
    traj::Mode mode = traj::Mode::kUnknown;
    double start_time = 0.0;
    int64_t id = 0;  // The session id: its key in slots_.

    /// Points in the open segment (0 = none open).
    size_t count() const { return duration.size(); }
  };

  /// One slot of the open-addressing table over pool_: `pos` is the pool
  /// index of session `id` plus one, and 0 marks an empty slot (every
  /// int64_t is a valid id, so no id can serve as the marker).
  struct Slot {
    int64_t id = 0;
    size_t pos = 0;
  };
  static constexpr size_t kInitialSlots = 16;

  /// Flushes the open segment of `session` (if any) as `reason`, applying
  /// the min-point and unlabeled filters, and resets it for the next one.
  /// An emitted segment's features come from traj::DerivePointFeatures and
  /// ExtractFromPointFeatures over its leg columns, the steps the offline
  /// extractor runs, so online and offline vectors are bit-identical.
  void CloseSegment(Session* session, CloseReason reason,
                    std::vector<ClosedSegment>* closed);

  /// Home slot of `session_id`: the top log2(slots_.size()) bits of its
  /// Mix64 hash.
  size_t Home(int64_t session_id) const;
  /// Index into slots_ of `session_id`'s slot, or of the empty slot that
  /// ends its probe run when the id is absent.
  size_t FindSlot(int64_t session_id) const;
  /// Doubles slots_ and re-inserts every pooled session.
  void Grow();
  /// Removes the session in slots_[slot] from the table and the pool.
  void Erase(size_t slot);

  SessionOptions options_;
  SessionManagerStats stats_;
  /// Close-time scratch: the open segment's channels. Reused across
  /// closes, so it keeps the capacity of the longest segment seen.
  traj::PointFeatures scratch_;
  std::function<void(const ClosedSegment&)> closed_sink_;
  /// Open sessions, densely packed in no particular order; Erase moves the
  /// last one into the hole. Nothing iterates them in pool or table order:
  /// every ordered walk goes through OpenSessionIds(), which sorts.
  std::vector<Session> pool_;
  /// Linear-probing table id -> pool index, a power of two long and at
  /// most half full. The home slot of an id is the top bits of Mix64(id):
  /// ServingPlane routes a power-of-two shard count on the low bits of
  /// the same hash, so within a shard the low bits are all alike.
  std::vector<Slot> slots_;
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_SESSION_MANAGER_H_
