#include "serve/session_manager.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/strings.h"
#include "obs/request_trace.h"
#include "traj/trajectory_features.h"

namespace trajkit::serve {

std::string_view CloseReasonToString(CloseReason reason) {
  switch (reason) {
    case CloseReason::kModeChange:
      return "mode_change";
    case CloseReason::kDayBoundary:
      return "day_boundary";
    case CloseReason::kTimeGap:
      return "time_gap";
    case CloseReason::kMaxWindow:
      return "max_window";
    case CloseReason::kIdle:
      return "idle";
    case CloseReason::kSessionCap:
      return "session_cap";
    case CloseReason::kFlush:
      return "flush";
  }
  return "unknown";
}

SessionManager::SessionManager(SessionOptions options)
    : options_(options),
      metric_points_(obs::MetricsRegistry::Global().GetCounter(
          "serve.sessions.points_ingested")),
      metric_out_of_order_(obs::MetricsRegistry::Global().GetCounter(
          "serve.sessions.points_dropped_out_of_order")),
      metric_emitted_(obs::MetricsRegistry::Global().GetCounter(
          "serve.sessions.segments_emitted")),
      metric_discarded_short_(obs::MetricsRegistry::Global().GetCounter(
          "serve.sessions.segments_discarded_short")),
      metric_discarded_unlabeled_(obs::MetricsRegistry::Global().GetCounter(
          "serve.sessions.segments_discarded_unlabeled")),
      metric_evicted_idle_(obs::MetricsRegistry::Global().GetCounter(
          "serve.sessions.evicted_idle")),
      metric_evicted_cap_(obs::MetricsRegistry::Global().GetCounter(
          "serve.sessions.evicted_cap")),
      metric_active_(obs::MetricsRegistry::Global().GetGauge(
          "serve.sessions.active")) {
  for (size_t r = 0; r < metric_closed_by_reason_.size(); ++r) {
    metric_closed_by_reason_[r] = &obs::MetricsRegistry::Global().GetCounter(
        "serve.sessions.closed." +
        std::string(CloseReasonToString(static_cast<CloseReason>(r))));
  }
  if (options_.shard >= 0) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    const std::string prefix =
        StrPrintf("serve.shard%d.sessions.", options_.shard);
    shard_points_ = &registry.GetCounter(prefix + "points_ingested");
    shard_emitted_ = &registry.GetCounter(prefix + "segments_emitted");
    shard_evicted_idle_ = &registry.GetCounter(prefix + "evicted_idle");
    shard_evicted_cap_ = &registry.GetCounter(prefix + "evicted_cap");
    shard_active_ = &registry.GetGauge(prefix + "active");
  }
}

void SessionManager::CloseSegment(int64_t session_id, Session* session,
                                  CloseReason reason,
                                  std::vector<ClosedSegment>* closed) {
  if (session->count() == 0) return;
  // Feature extraction needs two points even when the configured floor is
  // lower.
  const size_t min_points =
      std::max<size_t>(2, static_cast<size_t>(
                              std::max(options_.min_points, 0)));
  if (session->count() < min_points) {
    ++stats_.segments_discarded_short;
    metric_discarded_short_.Increment();
  } else if (options_.drop_unlabeled &&
             session->mode == traj::Mode::kUnknown) {
    ++stats_.segments_discarded_unlabeled;
    metric_discarded_unlabeled_.Increment();
  } else {
    scratch_.duration = session->duration;
    scratch_.distance = session->distance;
    scratch_.bearing = session->bearing;
    traj::DerivePointFeatures(options_.point_features, &scratch_);
    ClosedSegment segment;
    segment.session_id = session_id;
    segment.user_id = static_cast<int>(session_id);
    segment.day = session->day;
    segment.mode = session->mode;
    segment.start_time = session->start_time;
    segment.end_time = session->last.timestamp;
    segment.num_points = session->count();
    segment.reason = reason;
    segment.bbox = session->bbox;
    segment.features =
        traj::TrajectoryFeatureExtractor(options_.point_features)
            .ExtractFromPointFeatures(scratch_);
    // Mint the request trace here: segments are closed on the (single)
    // ingest thread in deterministic order, so trace ids — and with them
    // the head-sampling decision — are reproducible at any worker-thread
    // count.
    obs::RequestTracer& tracer = obs::RequestTracer::Global();
    if (tracer.enabled()) {
      segment.trace_id = tracer.Mint();
      tracer.RecordInstant(segment.trace_id, "segment_close",
                           obs::TracePhase::kSession, tracer.NowNs(),
                           static_cast<uint64_t>(reason));
    }
    closed->push_back(std::move(segment));
    ++stats_.segments_emitted;
    metric_emitted_.Increment();
    if (shard_emitted_ != nullptr) shard_emitted_->Increment();
    metric_closed_by_reason_[static_cast<size_t>(reason)]->Increment();
    if (closed_sink_) closed_sink_(closed->back());
  }
  // clear(), not reassignment: the columns keep their capacity for the
  // session's next segment.
  session->duration.clear();
  session->distance.clear();
  session->bearing.clear();
  session->bbox = geo::BoundingBox();
}

void SessionManager::Ingest(int64_t session_id,
                            const traj::TrajectoryPoint& point,
                            std::vector<ClosedSegment>* closed) {
  ++stats_.points_ingested;
  metric_points_.Increment();
  if (shard_points_ != nullptr) shard_points_->Increment();
  auto [it, inserted] = sessions_.try_emplace(session_id);
  Session& session = it->second;
  if (inserted) {
    lru_.push_front(session_id);
    session.lru = lru_.begin();
    SetActiveGauges();
  } else if (session.lru != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, session.lru);
  }

  // Same cleaning rule as the offline segmenter: a fix older than the last
  // kept fix of this session is dropped (even across a segment boundary).
  if (session.has_last && point.timestamp < session.last.timestamp) {
    ++stats_.points_dropped_out_of_order;
    metric_out_of_order_.Increment();
    return;
  }

  const int64_t day = traj::DayIndex(point.timestamp);
  if (session.count() > 0) {
    // Boundary checks in the offline segmenter's order; the first match
    // names the close reason.
    bool boundary = false;
    CloseReason reason = CloseReason::kFlush;
    if (options_.split_on_mode && point.mode != session.mode) {
      boundary = true;
      reason = CloseReason::kModeChange;
    } else if (options_.split_on_day && day != session.day) {
      boundary = true;
      reason = CloseReason::kDayBoundary;
    } else if (options_.max_gap_seconds > 0.0 &&
               point.timestamp - session.last.timestamp >
                   options_.max_gap_seconds) {
      boundary = true;
      reason = CloseReason::kTimeGap;
    }
    if (boundary) CloseSegment(session_id, &session, reason, closed);
  }

  // The leg step of traj::ComputePointFeatures, one fix at a time; the
  // first fix of a segment has no leg, and its entries are filled at close.
  const geo::LatTrig trig = geo::LatitudeTrig(point.pos.lat_deg);
  traj::PointLeg leg;
  if (session.count() == 0) {
    session.day = day;
    session.mode = point.mode;
    session.start_time = point.timestamp;
  } else {
    leg = traj::ComputeLeg(session.last, session.last_trig, point, trig,
                           options_.point_features);
  }
  session.duration.push_back(leg.duration);
  session.distance.push_back(leg.distance);
  session.bearing.push_back(leg.bearing);
  session.bbox.Extend(point.pos);
  session.last = point;
  session.last_trig = trig;
  session.has_last = true;

  // Max-window rule: the serving-only bound on per-segment buffers.
  if (options_.max_segment_points > 0 &&
      session.count() >= options_.max_segment_points) {
    CloseSegment(session_id, &session, CloseReason::kMaxWindow, closed);
  }

  // Session cap: evict the least-recently-updated session. The current
  // session was just moved to the front, so the victim is always another
  // one.
  if (options_.max_sessions > 0 && sessions_.size() > options_.max_sessions) {
    CloseSession(lru_.back(), CloseReason::kSessionCap, closed);
  }
}

void SessionManager::EvictIdle(double now,
                               std::vector<ClosedSegment>* closed) {
  for (int64_t session_id : IdleSessionIds(now)) {
    CloseSession(session_id, CloseReason::kIdle, closed);
  }
}

void SessionManager::FlushAll(std::vector<ClosedSegment>* closed) {
  for (int64_t session_id : OpenSessionIds()) {
    CloseSession(session_id, CloseReason::kFlush, closed);
  }
}

std::vector<int64_t> SessionManager::OpenSessionIds() const {
  std::vector<int64_t> ids;
  ids.reserve(sessions_.size());
  for (const auto& [session_id, session] : sessions_) {
    ids.push_back(session_id);
  }
  return ids;
}

std::vector<int64_t> SessionManager::IdleSessionIds(double now) const {
  std::vector<int64_t> ids;
  if (options_.idle_after_seconds <= 0.0) return ids;
  for (const auto& [session_id, session] : sessions_) {
    if (session.has_last &&
        now - session.last.timestamp > options_.idle_after_seconds) {
      ids.push_back(session_id);
    }
  }
  return ids;
}

void SessionManager::CloseSession(int64_t session_id, CloseReason reason,
                                  std::vector<ClosedSegment>* closed) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  CloseSegment(session_id, &it->second, reason, closed);
  lru_.erase(it->second.lru);
  sessions_.erase(it);
  if (reason == CloseReason::kIdle) {
    ++stats_.sessions_evicted_idle;
    metric_evicted_idle_.Increment();
    if (shard_evicted_idle_ != nullptr) shard_evicted_idle_->Increment();
  } else if (reason == CloseReason::kSessionCap) {
    ++stats_.sessions_evicted_cap;
    metric_evicted_cap_.Increment();
    if (shard_evicted_cap_ != nullptr) shard_evicted_cap_->Increment();
  }
  SetActiveGauges();
}

void SessionManager::SetActiveGauges() {
  if (shard_active_ != nullptr) {
    // Sharded: own only the per-shard gauge. The ServingPlane keeps the
    // aggregate serve.sessions.active gauge (a per-shard write here would
    // clobber it with one shard's count).
    shard_active_->Set(static_cast<double>(sessions_.size()));
  } else {
    metric_active_.Set(static_cast<double>(sessions_.size()));
  }
}

}  // namespace trajkit::serve
