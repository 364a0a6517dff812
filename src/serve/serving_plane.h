#ifndef TRAJKIT_SERVE_SERVING_PLANE_H_
#define TRAJKIT_SERVE_SERVING_PLANE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "serve/batch_predictor.h"
#include "serve/model_registry.h"
#include "serve/request.h"
#include "serve/session_manager.h"

namespace trajkit::serve {

/// The registry counters one counted stat is published to: `name` below
/// is appended to "serve." (the cross-shard aggregate) and to
/// "serve.shard<i>." (shard i's mirror).
enum class CounterScope { kAggregate, kAggregateAndShard, kShard };

/// One counted stat of a component's plain counts, bound to one stats
/// struct: its registry name, where it is published, and the count.
template <typename Count>  // size_t, or const size_t for a const struct.
struct StatCount {
  const char* name;
  CounterScope scope;
  Count* value;
};

/// The one mapping from SessionManagerStats to registry counters. It
/// drives ServingPlane::PublishMetrics and session_stats().
template <typename Stats>  // [const] SessionManagerStats.
auto SessionCounts(Stats& s) {
  using Count = std::conditional_t<std::is_const_v<Stats>, const size_t,
                                   size_t>;
  using enum CounterScope;
  using enum CloseReason;
  const auto closed = [&s](CloseReason r) {
    return &s.closed[static_cast<size_t>(r)];
  };
  return std::to_array<StatCount<Count>>({
      {"sessions.points_ingested", kAggregateAndShard, &s.points_ingested},
      {"sessions.points_dropped_invalid", kAggregate,
       &s.points_dropped_invalid},
      {"sessions.points_dropped_out_of_order", kAggregate,
       &s.points_dropped_out_of_order},
      {"sessions.segments_emitted", kAggregateAndShard, &s.segments_emitted},
      {"sessions.segments_discarded_short", kAggregate,
       &s.segments_discarded_short},
      {"sessions.segments_discarded_unlabeled", kAggregate,
       &s.segments_discarded_unlabeled},
      {"sessions.closed.mode_change", kAggregate, closed(kModeChange)},
      {"sessions.closed.day_boundary", kAggregate, closed(kDayBoundary)},
      {"sessions.closed.time_gap", kAggregate, closed(kTimeGap)},
      {"sessions.closed.max_window", kAggregate, closed(kMaxWindow)},
      {"sessions.closed.flush", kAggregate, closed(kFlush)},
  });
}

/// The one mapping from BatchPredictor::Counters to registry counters. It
/// drives ServingPlane::PublishMetrics and predictor_counters(); `batches`
/// (the predictor's own live serve.batch_predictor.batches) and
/// `max_batch` are not published.
template <typename Stats>  // [const] BatchPredictor::Counters.
auto PredictorCounts(Stats& c) {
  using Count = std::conditional_t<std::is_const_v<Stats>, const size_t,
                                   size_t>;
  using enum CounterScope;
  return std::to_array<StatCount<Count>>({
      {"batch_predictor.requests", kAggregateAndShard, &c.requests},
      {"shed_total", kShard, &c.shed},
      {"shed_total.queue_full", kAggregate, &c.shed_queue_full},
      {"shed_total.preempted", kAggregate, &c.shed_preempted},
      {"deadline_exceeded_total", kAggregateAndShard, &c.deadline_exceeded},
      {"degraded_total", kShard, &c.degraded},
      {"degraded_total.previous_model", kAggregate,
       &c.degraded_previous_model},
      {"degraded_total.majority_class", kAggregate,
       &c.degraded_majority_class},
      {"unavailable_total", kAggregateAndShard, &c.unavailable},
  });
}

/// Configuration of a sharded serving plane.
struct ServingPlaneOptions {
  /// Number of independent shards; clamped to >= 1.
  size_t shards = 1;
  /// Per-shard session-layer configuration.
  SessionOptions session;
  /// Per-shard micro-batching / admission-control configuration.
  /// `batching.shard` is overwritten with the shard index;
  /// `batching.max_queue` is a per-shard watermark. A configured
  /// `batching.fault_injector` is shared by every shard (its fault draws
  /// are mutex-guarded).
  BatchPredictorOptions batching;
};

/// N independent serving shards — shard-per-core scaling of the ingest
/// path. Requests are routed by hash(user_id) % shards; each shard owns
/// its session map, open-segment leg columns, micro-batch queue, deadline
/// sweeper, and admission-control watermarks, so writers on different
/// shards never contend. Predictions fan in through the single versioned
/// ModelRegistry: every shard snapshots the same registry per batch, so a
/// hot swap stays atomic across shards.
///
/// Determinism contract (the CI shard-determinism matrix pins it): driven
/// from one thread, replay output is byte-identical at any shard count.
/// Three properties carry the argument:
///  - Routing is a pure function of user_id, so a user's stream always
///    lands on one shard in arrival order; per-session segmentation state
///    never crosses shards and close decisions are shard-count-invariant.
///  - FlushAll interleaves closes across shards in globally ascending
///    session-id order via SessionManager::CloseSession — the
///    exact order one unsharded manager produces, which keeps trace-id
///    mint order, sink order, and submit order identical.
///  - A prediction is bit-identical whatever micro-batch (and therefore
///    shard queue) it lands in, per the BatchPredictor contract.
///
/// Thread safety matches the components: each shard is single-writer for
/// Ingest/FlushAll (different shards may ingest from different
/// threads concurrently — that is the point), while Submit is safe from
/// any thread.
///
/// Metrics: the components count once, into their own plain stats. The
/// plane is the only writer of the serving counters in the metrics
/// registry (serve.sessions.*, serve.batch_predictor.requests,
/// serve.shed_total.*, serve.degraded_total.*,
/// serve.deadline_exceeded_total, serve.unavailable_total and their
/// serve.shard<i>.* mirrors): PublishMetrics() adds what each stat gained
/// since the last publish, at barriers of the caller's choosing. It also
/// writes the active-session gauges whenever a shard's open count changes.
class ServingPlane {
 public:
  /// `registry` must outlive the plane.
  ServingPlane(const ModelRegistry* registry, ServingPlaneOptions options);

  ServingPlane(const ServingPlane&) = delete;
  ServingPlane& operator=(const ServingPlane&) = delete;

  size_t num_shards() const { return shards_.size(); }

  /// The shard `user_id` routes to: splitmix64(user_id) % shards. Stable
  /// for the lifetime of the plane — resubmits and retries of the same
  /// user always land on the same shard.
  size_t ShardOf(int64_t user_id) const;

  /// Ingests one fix for `user_id` on its shard (session id = user id).
  void Ingest(int64_t user_id, const traj::TrajectoryPoint& point,
              std::vector<ClosedSegment>* closed);

  /// Closes every open segment across all shards in globally ascending
  /// session-id order (see the determinism contract above) and drops all
  /// sessions.
  void FlushAll(std::vector<ClosedSegment>* closed);

  /// Submits one request to `user_id`'s shard.
  std::future<Result<Prediction>> Submit(int64_t user_id,
                                         PredictRequest request);

  /// Drains every shard's pending queue on the calling thread.
  void FlushPredictors();

  /// Adds each counted stat's increase since the last publish to its
  /// registry counters (SessionCounts, PredictorCounts), so the counters
  /// stay monotonic across planes. Call it from the ingest thread, at a
  /// barrier: ReplayCorpus does at the end of every drain.
  void PublishMetrics();

  /// Installs the closed-segment observer on every shard (segments still
  /// arrive in each shard's close order; drive the plane from one thread
  /// for a globally deterministic sink order).
  void set_closed_sink(std::function<void(const ClosedSegment&)> sink);

  SessionManager& sessions(size_t shard) { return shards_[shard]->sessions; }
  BatchPredictor& predictor(size_t shard) {
    return shards_[shard]->predictor;
  }

  /// Open sessions across all shards.
  size_t num_open_sessions() const;

  /// Session-layer counters summed across shards (current, not as of the
  /// last publish).
  SessionManagerStats session_stats() const;

  /// Predictor counters summed across shards (max_batch is the max).
  BatchPredictor::Counters predictor_counters() const;

 private:
  /// One counted stat's registry counters (null where it is not
  /// published) and its value at the last publish.
  struct Published {
    obs::Counter* aggregate = nullptr;
    obs::Counter* shard = nullptr;
    size_t last = 0;
  };

  struct Shard {
    Shard(const ModelRegistry* registry, const SessionOptions& session,
          const BatchPredictorOptions& batching)
        : sessions(session), predictor(registry, batching) {}
    SessionManager sessions;
    BatchPredictor predictor;
    obs::Gauge* active = nullptr;  // serve.shard<i>.sessions.active
    /// One entry per SessionCounts row, then one per PredictorCounts row.
    std::vector<Published> published;
  };

  /// Writes every shard's serve.shard<i>.sessions.active gauge and the
  /// aggregate serve.sessions.active.
  void SetActiveGauges();

  /// unique_ptr: shards are immovable (mutexes, threads) and the vector
  /// is sized once in the constructor.
  std::vector<std::unique_ptr<Shard>> shards_;
  obs::Gauge& metric_active_;
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_SERVING_PLANE_H_
