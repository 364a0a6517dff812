#include "serve/serving_plane.h"

#include <algorithm>
#include <utility>

namespace trajkit::serve {

namespace {

/// splitmix64 finalizer: a cheap, well-mixed hash so consecutive user ids
/// spread evenly instead of striping across shards.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ServingPlane::ServingPlane(const ModelRegistry* registry,
                           ServingPlaneOptions options)
    : metric_active_(
          obs::MetricsRegistry::Global().GetGauge("serve.sessions.active")) {
  const size_t shards = std::max<size_t>(1, options.shards);
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    SessionOptions session = options.session;
    session.shard = static_cast<int>(s);
    BatchPredictorOptions batching = options.batching;
    batching.shard = static_cast<int>(s);
    shards_.push_back(std::make_unique<Shard>(registry, session, batching));
  }
}

size_t ServingPlane::ShardOf(int64_t user_id) const {
  // Mix64(id) % n without the 64-bit division where n allows it.
  const size_t n = shards_.size();
  if (n == 1) return 0;
  const uint64_t hash = Mix64(static_cast<uint64_t>(user_id));
  if ((n & (n - 1)) == 0) return static_cast<size_t>(hash & (n - 1));
  return static_cast<size_t>(hash % n);
}

void ServingPlane::Ingest(int64_t user_id,
                          const traj::TrajectoryPoint& point,
                          std::vector<ClosedSegment>* closed) {
  SessionManager& sessions = shards_[ShardOf(user_id)]->sessions;
  const size_t open_before = sessions.num_open_sessions();
  sessions.Ingest(user_id, point, closed);
  // The aggregate moves only when a session opens or closes, not per point.
  if (sessions.num_open_sessions() != open_before) SetActiveGauge();
}

void ServingPlane::EvictIdle(double now,
                             std::vector<ClosedSegment>* closed) {
  // Merge the per-shard idle sets into one globally ascending session-id
  // pass — the exact close order of a single unsharded manager. Ids are
  // unique across shards (a user routes to exactly one), so a plain sort
  // of (id, shard) pairs is a stable interleaving.
  std::vector<std::pair<int64_t, size_t>> idle;
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (int64_t session_id : shards_[s]->sessions.IdleSessionIds(now)) {
      idle.emplace_back(session_id, s);
    }
  }
  std::sort(idle.begin(), idle.end());
  for (const auto& [session_id, s] : idle) {
    shards_[s]->sessions.CloseSession(session_id, CloseReason::kIdle, closed);
  }
  SetActiveGauge();
}

void ServingPlane::FlushAll(std::vector<ClosedSegment>* closed) {
  std::vector<std::pair<int64_t, size_t>> open;
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (int64_t session_id : shards_[s]->sessions.OpenSessionIds()) {
      open.emplace_back(session_id, s);
    }
  }
  std::sort(open.begin(), open.end());
  for (const auto& [session_id, s] : open) {
    shards_[s]->sessions.CloseSession(session_id, CloseReason::kFlush,
                                      closed);
  }
  SetActiveGauge();
}

std::future<Result<Prediction>> ServingPlane::Submit(int64_t user_id,
                                                     PredictRequest request) {
  return shards_[ShardOf(user_id)]->predictor.Submit(std::move(request));
}

void ServingPlane::FlushPredictors() {
  for (auto& shard : shards_) shard->predictor.Flush();
}

void ServingPlane::set_closed_sink(
    std::function<void(const ClosedSegment&)> sink) {
  for (auto& shard : shards_) shard->sessions.set_closed_sink(sink);
}

size_t ServingPlane::num_open_sessions() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->sessions.num_open_sessions();
  }
  return total;
}

SessionManagerStats ServingPlane::session_stats() const {
  SessionManagerStats total;
  for (const auto& shard : shards_) {
    const SessionManagerStats& stats = shard->sessions.stats();
    total.points_ingested += stats.points_ingested;
    total.points_dropped_invalid += stats.points_dropped_invalid;
    total.points_dropped_out_of_order += stats.points_dropped_out_of_order;
    total.segments_emitted += stats.segments_emitted;
    total.segments_discarded_short += stats.segments_discarded_short;
    total.segments_discarded_unlabeled += stats.segments_discarded_unlabeled;
    total.sessions_evicted_idle += stats.sessions_evicted_idle;
    total.sessions_evicted_cap += stats.sessions_evicted_cap;
  }
  return total;
}

BatchPredictor::Counters ServingPlane::predictor_counters() const {
  BatchPredictor::Counters total;
  for (const auto& shard : shards_) {
    const BatchPredictor::Counters counters = shard->predictor.counters();
    total.requests += counters.requests;
    total.batches += counters.batches;
    total.max_batch = std::max(total.max_batch, counters.max_batch);
    total.shed += counters.shed;
    total.deadline_exceeded += counters.deadline_exceeded;
    total.degraded += counters.degraded;
    total.unavailable += counters.unavailable;
  }
  return total;
}

void ServingPlane::SetActiveGauge() {
  metric_active_.Set(static_cast<double>(num_open_sessions()));
}

}  // namespace trajkit::serve
