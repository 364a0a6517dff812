#ifndef TRAJKIT_SERVE_SERVING_PLANE_H_
#define TRAJKIT_SERVE_SERVING_PLANE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "serve/batch_predictor.h"
#include "serve/model_registry.h"
#include "serve/request.h"
#include "serve/session_manager.h"

namespace trajkit::serve {

/// Configuration of a sharded serving plane.
struct ServingPlaneOptions {
  /// Number of independent shards; clamped to >= 1.
  size_t shards = 1;
  /// Per-shard session-layer configuration. `session.shard` is overwritten
  /// with the shard index; `session.max_sessions` is a PER-SHARD cap (the
  /// plane-wide ceiling is shards * max_sessions).
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
///  - EvictIdle/FlushAll interleave closes across shards in globally
///    ascending session-id order via SessionManager::CloseSession — the
///    exact order one unsharded manager produces, which keeps trace-id
///    mint order, sink order, and submit order identical.
///  - A prediction is bit-identical whatever micro-batch (and therefore
///    shard queue) it lands in, per the BatchPredictor contract.
///
/// Thread safety matches the components: each shard is single-writer for
/// Ingest/EvictIdle/FlushAll (different shards may ingest from different
/// threads concurrently — that is the point), while Submit is safe from
/// any thread.
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

  /// Closes idle sessions across all shards, interleaved in globally
  /// ascending session-id order (see the determinism contract above).
  void EvictIdle(double now, std::vector<ClosedSegment>* closed);

  /// Closes every open segment across all shards in globally ascending
  /// session-id order and drops all sessions.
  void FlushAll(std::vector<ClosedSegment>* closed);

  /// Submits one request to `user_id`'s shard.
  std::future<Result<Prediction>> Submit(int64_t user_id,
                                         PredictRequest request);

  /// Drains every shard's pending queue on the calling thread.
  void FlushPredictors();

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

  /// Session-layer counters summed across shards.
  SessionManagerStats session_stats() const;

  /// Predictor counters summed across shards (max_batch is the max).
  BatchPredictor::Counters predictor_counters() const;

 private:
  struct Shard {
    Shard(const ModelRegistry* registry, const SessionOptions& session,
          const BatchPredictorOptions& batching)
        : sessions(session), predictor(registry, batching) {}
    SessionManager sessions;
    BatchPredictor predictor;
  };

  /// Mirrors the summed open-session count into the aggregate
  /// serve.sessions.active gauge (sharded managers write only their own
  /// per-shard gauge).
  void SetActiveGauge();

  /// unique_ptr: shards are immovable (mutexes, threads) and the vector
  /// is sized once in the constructor.
  std::vector<std::unique_ptr<Shard>> shards_;
  obs::Gauge& metric_active_;
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_SERVING_PLANE_H_
