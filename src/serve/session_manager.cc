#include "serve/session_manager.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/hash.h"
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
    case CloseReason::kFlush:
      return "flush";
  }
  return "unknown";
}

void SessionManager::CloseSegment(Session* session, CloseReason reason,
                                  std::vector<ClosedSegment>* closed) {
  if (session->count() == 0) return;
  // Feature extraction needs two points even when the configured floor is
  // lower.
  const size_t min_points =
      std::max<size_t>(2, static_cast<size_t>(
                              std::max(options_.min_points, 0)));
  if (session->count() < min_points) {
    ++stats_.segments_discarded_short;
  } else if (options_.drop_unlabeled &&
             session->mode == traj::Mode::kUnknown) {
    ++stats_.segments_discarded_unlabeled;
  } else {
    scratch_.duration = session->duration;
    scratch_.distance = session->distance;
    scratch_.bearing = session->bearing;
    traj::DerivePointFeatures(options_.point_features, &scratch_);
    ClosedSegment segment;
    segment.session_id = session->id;
    segment.user_id = static_cast<int>(session->id);
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
    ++stats_.closed[static_cast<size_t>(reason)];
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
  // A NaN or infinite fix would poison the session's MBR (a store log its
  // own Load rejects); a timestamp without a day index (non-finite, or
  // beyond about 7.9e23 s) would make the day cast undefined. Neither
  // opens a session.
  if (!traj::HasDayIndex(point.timestamp) || !geo::IsValid(point.pos)) {
    ++stats_.points_dropped_invalid;
    return;
  }
  // A session opens with a kept fix and lives until CloseSession, so an
  // existing session always has a last kept fix.
  size_t slot = FindSlot(session_id);
  const bool inserted = slots_[slot].pos == 0;
  if (inserted) {
    if (2 * (pool_.size() + 1) > slots_.size()) {
      Grow();
      slot = FindSlot(session_id);
    }
    slots_[slot] = {session_id, pool_.size() + 1};
    pool_.emplace_back().id = session_id;
  }
  Session& session = pool_[slots_[slot].pos - 1];

  // Same cleaning rule as the offline segmenter: a fix older than the last
  // kept fix of this session is dropped (even across a segment boundary).
  if (!inserted && point.timestamp < session.last.timestamp) {
    ++stats_.points_dropped_out_of_order;
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
    if (boundary) CloseSegment(&session, reason, closed);
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

  // Max-window rule: the serving-only bound on per-segment buffers.
  if (options_.max_segment_points > 0 &&
      session.count() >= options_.max_segment_points) {
    CloseSegment(&session, CloseReason::kMaxWindow, closed);
  }
}

void SessionManager::FlushAll(std::vector<ClosedSegment>* closed) {
  for (int64_t session_id : OpenSessionIds()) {
    CloseSession(session_id, CloseReason::kFlush, closed);
  }
}

std::vector<int64_t> SessionManager::OpenSessionIds() const {
  std::vector<int64_t> ids;
  ids.reserve(pool_.size());
  for (const Session& session : pool_) ids.push_back(session.id);
  // The pool is in no useful order; sorting here is what makes every
  // flush close in ascending session id.
  std::sort(ids.begin(), ids.end());
  return ids;
}

void SessionManager::CloseSession(int64_t session_id, CloseReason reason,
                                  std::vector<ClosedSegment>* closed) {
  const size_t slot = FindSlot(session_id);
  if (slots_[slot].pos == 0) return;
  CloseSegment(&pool_[slots_[slot].pos - 1], reason, closed);
  Erase(slot);
}

size_t SessionManager::Home(int64_t session_id) const {
  const int bits = std::countr_zero(slots_.size());
  return static_cast<size_t>(Mix64(static_cast<uint64_t>(session_id)) >>
                             (64 - bits));
}

size_t SessionManager::FindSlot(int64_t session_id) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = Home(session_id);
  while (slots_[slot].pos != 0 && slots_[slot].id != session_id) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void SessionManager::Grow() {
  slots_.assign(2 * slots_.size(), Slot());
  for (size_t pos = 1; pos <= pool_.size(); ++pos) {
    const int64_t session_id = pool_[pos - 1].id;
    slots_[FindSlot(session_id)] = {session_id, pos};
  }
}

void SessionManager::Erase(size_t slot) {
  const size_t pos = slots_[slot].pos;
  // Backward-shift deletion, so the table needs no tombstones: walk the
  // rest of the probe run and move into the hole each entry whose probe
  // path, from its home slot on, passes through the hole.
  const size_t mask = slots_.size() - 1;
  size_t hole = slot;
  for (size_t i = (hole + 1) & mask; slots_[i].pos != 0; i = (i + 1) & mask) {
    if (((i - Home(slots_[i].id)) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Slot();
  // Keep the pool dense: the last session moves into the erased one's
  // place, and its slot follows it.
  if (pos != pool_.size()) {
    pool_[pos - 1] = std::move(pool_.back());
    slots_[FindSlot(pool_[pos - 1].id)].pos = pos;
  }
  pool_.pop_back();
}

}  // namespace trajkit::serve
