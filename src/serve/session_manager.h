#ifndef TRAJKIT_SERVE_SESSION_MANAGER_H_
#define TRAJKIT_SERVE_SESSION_MANAGER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <string_view>
#include <vector>

#include "geo/geodesy.h"
#include "obs/metrics.h"
#include "traj/point_features.h"
#include "traj/segmentation.h"
#include "traj/types.h"

namespace trajkit::serve {

/// Configuration of the per-user streaming sessions. The segment-close
/// rules mirror `traj::SegmentationOptions` field-for-field so that a
/// replayed stream closes exactly the segments the offline pipeline cuts;
/// the extra knobs (max-window, idle eviction, session cap) bound memory
/// for long-running service with millions of sessions.
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
  /// EvictIdle() closes sessions whose last fix is older than this many
  /// seconds; <= 0 disables idle eviction.
  double idle_after_seconds = 1800.0;
  /// Hard cap on concurrently open sessions; beyond it the
  /// least-recently-updated session is flushed and evicted. 0 = unbounded.
  size_t max_sessions = 0;
  /// Shard index when this manager is one shard of a ServingPlane; >= 0
  /// additionally mirrors the session counters under
  /// "serve.shard<i>.sessions.*" so statusz and the CI shard-determinism
  /// matrix can attribute load per shard. -1 (default) = unsharded.
  int shard = -1;
  /// Options of the point-feature kernel run at ingest and close.
  traj::PointFeatureOptions point_features;
};

/// Why a segment was closed.
enum class CloseReason {
  kModeChange,
  kDayBoundary,
  kTimeGap,
  kMaxWindow,
  kIdle,
  kSessionCap,
  kFlush,
};

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

/// Counters of one SessionManager's lifetime.
struct SessionManagerStats {
  size_t points_ingested = 0;
  size_t points_dropped_out_of_order = 0;
  size_t segments_emitted = 0;
  size_t segments_discarded_short = 0;
  size_t segments_discarded_unlabeled = 0;
  size_t sessions_evicted_idle = 0;
  size_t sessions_evicted_cap = 0;
};

/// Per-user streaming sessions: points are ingested one at a time, open
/// segments are closed incrementally by the offline segmentation rules
/// (mode change / day boundary / time gap) plus the serving-only max-window
/// rule, and memory stays bounded via the idle-eviction policy and the
/// LRU session cap. Single-writer: callers serialize Ingest/Evict/Flush
/// (shard across SessionManagers to scale writers; prediction is where the
/// shared thread pool parallelism lives).
class SessionManager {
 public:
  explicit SessionManager(SessionOptions options = {});

  /// Ingests one fix for `session_id`. At most one boundary-closed segment
  /// plus one cap-evicted segment are appended to `closed`. Out-of-order
  /// fixes (timestamp before the session's last kept fix) are dropped,
  /// mirroring the offline cleaner.
  void Ingest(int64_t session_id, const traj::TrajectoryPoint& point,
              std::vector<ClosedSegment>* closed);

  /// Closes and evicts every session idle longer than
  /// `idle_after_seconds` relative to `now`, appending the flushed
  /// segments (ascending session id — deterministic). No-op when idle
  /// eviction is disabled.
  void EvictIdle(double now, std::vector<ClosedSegment>* closed);

  /// Closes every open segment (ascending session id) and drops all
  /// sessions — end-of-stream / shutdown.
  void FlushAll(std::vector<ClosedSegment>* closed);

  /// Ascending ids of all open sessions.
  std::vector<int64_t> OpenSessionIds() const;

  /// Ascending ids of sessions idle longer than `idle_after_seconds` at
  /// `now`. Empty when idle eviction is disabled.
  std::vector<int64_t> IdleSessionIds(double now) const;

  /// Closes `session_id`'s open segment as `reason` and erases the session
  /// (with eviction bookkeeping for kIdle / kSessionCap). No-op for
  /// unknown ids. EvictIdle/FlushAll are built on this; a ServingPlane
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

  size_t num_open_sessions() const { return sessions_.size(); }
  const SessionManagerStats& stats() const { return stats_; }
  const SessionOptions& options() const { return options_; }

 private:
  struct Session {
    /// Leg columns of the open segment, one entry per fix, index-aligned
    /// with traj::PointFeatures (entry 0 is filled at close).
    std::vector<double> duration;
    std::vector<double> distance;
    std::vector<double> bearing;
    traj::TrajectoryPoint last;  // Last kept fix, valid when has_last.
    geo::LatTrig last_trig;      // Its latitude trig, for the next leg.
    geo::BoundingBox bbox;  // MBR of the open segment's kept fixes.
    int64_t day = 0;
    traj::Mode mode = traj::Mode::kUnknown;
    double start_time = 0.0;
    bool has_last = false;  // Any fix kept since the session was created.
    std::list<int64_t>::iterator lru;

    /// Points in the open segment (0 = none open).
    size_t count() const { return duration.size(); }
  };

  /// Flushes the open segment of `session` (if any) as `reason`, applying
  /// the min-point and unlabeled filters, and resets it for the next one.
  /// An emitted segment's features come from traj::DerivePointFeatures and
  /// ExtractFromPointFeatures over its leg columns, the steps the offline
  /// extractor runs, so online and offline vectors are bit-identical.
  void CloseSegment(int64_t session_id, Session* session, CloseReason reason,
                    std::vector<ClosedSegment>* closed);

  /// Updates the active-session gauge: the per-shard one when sharded
  /// (the ServingPlane owns the aggregate then), the global one otherwise.
  /// Called whenever a session is created or erased, so the gauge always
  /// equals the open-session count without a write per point.
  void SetActiveGauges();

  SessionOptions options_;
  SessionManagerStats stats_;
  /// Close-time scratch: the open segment's channels. Reused across
  /// closes, so it keeps the capacity of the longest segment seen.
  traj::PointFeatures scratch_;
  std::function<void(const ClosedSegment&)> closed_sink_;
  /// Process-wide mirrors of stats_ (serve.sessions.* counters, the
  /// serve.sessions.active gauge, and one serve.sessions.closed.<reason>
  /// counter per CloseReason), resolved once at construction. stats_ stays
  /// per-instance; the metrics aggregate across all managers.
  obs::Counter& metric_points_;
  obs::Counter& metric_out_of_order_;
  obs::Counter& metric_emitted_;
  obs::Counter& metric_discarded_short_;
  obs::Counter& metric_discarded_unlabeled_;
  obs::Counter& metric_evicted_idle_;
  obs::Counter& metric_evicted_cap_;
  obs::Gauge& metric_active_;
  std::array<obs::Counter*, 7> metric_closed_by_reason_;
  /// Per-shard mirrors (serve.shard<i>.sessions.*), resolved only when
  /// SessionOptions::shard >= 0; null otherwise. The unshard-labelled
  /// metrics above stay the cross-shard aggregate.
  obs::Counter* shard_points_ = nullptr;
  obs::Counter* shard_emitted_ = nullptr;
  obs::Counter* shard_evicted_idle_ = nullptr;
  obs::Counter* shard_evicted_cap_ = nullptr;
  obs::Gauge* shard_active_ = nullptr;
  /// Ordered map: deterministic iteration for eviction and flush.
  std::map<int64_t, Session> sessions_;
  /// Recency list, most recently updated first.
  std::list<int64_t> lru_;
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_SESSION_MANAGER_H_
