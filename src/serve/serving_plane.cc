#include "serve/serving_plane.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/strings.h"

namespace trajkit::serve {

namespace {

/// Resolves the registry counters of every row of `counts` for shard
/// `shard`, appending one Published entry per row.
template <typename Counts, typename Published>
void ResolveCounters(const Counts& counts, size_t shard,
                     std::vector<Published>* published) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const auto& count : counts) {
    Published entry;
    if (count.scope != CounterScope::kShard) {
      entry.aggregate = &registry.GetCounter(std::string("serve.") +
                                             count.name);
    }
    if (count.scope != CounterScope::kAggregate) {
      entry.shard = &registry.GetCounter(
          StrPrintf("serve.shard%zu.%s", shard, count.name));
    }
    published->push_back(entry);
  }
}

/// Adds each row's increase since the last publish to its counters;
/// returns the entry after the last row.
template <typename Counts, typename Published>
Published* PublishCounts(const Counts& counts, Published* published) {
  for (const auto& count : counts) {
    const size_t delta = *count.value - published->last;
    if (delta > 0) {
      published->last = *count.value;
      if (published->aggregate != nullptr) {
        published->aggregate->Increment(delta);
      }
      if (published->shard != nullptr) published->shard->Increment(delta);
    }
    ++published;
  }
  return published;
}

/// Adds every row of `part` into the same row of `total`.
template <typename Counts, typename PartCounts>
void AddCounts(const Counts& total, const PartCounts& part) {
  for (size_t i = 0; i < total.size(); ++i) *total[i].value += *part[i].value;
}

}  // namespace

ServingPlane::ServingPlane(const ModelRegistry* registry,
                           ServingPlaneOptions options)
    : metric_active_(
          obs::MetricsRegistry::Global().GetGauge("serve.sessions.active")) {
  const size_t shards = std::max<size_t>(1, options.shards);
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    BatchPredictorOptions batching = options.batching;
    batching.shard = static_cast<int>(s);
    auto shard = std::make_unique<Shard>(registry, options.session, batching);
    shard->active = &obs::MetricsRegistry::Global().GetGauge(
        StrPrintf("serve.shard%zu.sessions.active", s));
    SessionManagerStats session_stats;
    BatchPredictor::Counters predictor_counters;
    ResolveCounters(SessionCounts(session_stats), s, &shard->published);
    ResolveCounters(PredictorCounts(predictor_counters), s,
                    &shard->published);
    shards_.push_back(std::move(shard));
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
  // The gauges move only when a session opens or closes, not per point.
  if (sessions.num_open_sessions() != open_before) SetActiveGauges();
}

void ServingPlane::FlushAll(std::vector<ClosedSegment>* closed) {
  // Merge the per-shard open sets into one globally ascending session-id
  // pass — the exact close order of a single unsharded manager. Ids are
  // unique across shards (a user routes to exactly one), so a plain sort
  // of (id, shard) pairs is a stable interleaving.
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
  SetActiveGauges();
}

std::future<Result<Prediction>> ServingPlane::Submit(int64_t user_id,
                                                     PredictRequest request) {
  return shards_[ShardOf(user_id)]->predictor.Submit(std::move(request));
}

void ServingPlane::FlushPredictors() {
  for (auto& shard : shards_) shard->predictor.Flush();
}

void ServingPlane::PublishMetrics() {
  for (auto& shard : shards_) {
    const BatchPredictor::Counters counters = shard->predictor.counters();
    Published* next = PublishCounts(SessionCounts(shard->sessions.stats()),
                                    shard->published.data());
    PublishCounts(PredictorCounts(counters), next);
  }
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
    AddCounts(SessionCounts(total), SessionCounts(shard->sessions.stats()));
  }
  return total;
}

BatchPredictor::Counters ServingPlane::predictor_counters() const {
  BatchPredictor::Counters total;
  for (const auto& shard : shards_) {
    const BatchPredictor::Counters counters = shard->predictor.counters();
    AddCounts(PredictorCounts(total), PredictorCounts(counters));
    total.batches += counters.batches;
    total.max_batch = std::max(total.max_batch, counters.max_batch);
  }
  return total;
}

void ServingPlane::SetActiveGauges() {
  for (auto& shard : shards_) {
    shard->active->Set(
        static_cast<double>(shard->sessions.num_open_sessions()));
  }
  metric_active_.Set(static_cast<double>(num_open_sessions()));
}

}  // namespace trajkit::serve
