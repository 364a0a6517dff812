#ifndef TRAJKIT_SERVE_BATCH_PREDICTOR_H_
#define TRAJKIT_SERVE_BATCH_PREDICTOR_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/request.h"

namespace trajkit::serve {

class FaultInjector;
class ShadowEvaluator;

/// Micro-batching + admission-control knobs.
struct BatchPredictorOptions {
  /// Most requests one batch takes off the queue.
  size_t max_batch_size = 64;
  /// Admission control: maximum queued requests. 0 = unbounded (default,
  /// the pre-admission-control behavior). When the queue is at the limit
  /// the lowest-priority request is shed first: an already-queued victim
  /// with strictly lower priority than the newcomer is preempted,
  /// otherwise the newcomer itself is rejected. Shed requests resolve
  /// with Status::ResourceExhausted and are counted per reason under
  /// serve.shed_total.{preempted,queue_full}.
  size_t max_queue = 0;
  /// Class prior (e.g. training-set label counts) backing the last rung of
  /// the degradation chain: when no model can serve a batch, requests are
  /// answered with the majority class of this prior instead of an error.
  /// Empty (default) disables the rung.
  std::vector<double> label_prior;
  /// Optional chaos injector (not owned; must outlive the predictor).
  /// nullptr = no fault injection.
  FaultInjector* fault_injector = nullptr;
  /// Shard index when this predictor is one shard of a ServingPlane; >= 0
  /// writes the queue depth to "serve.shard<i>.batch_predictor.queue_depth"
  /// instead of the unsharded gauge (shards must not clobber each other's
  /// depth). -1 (default) = unsharded.
  int shard = -1;
  /// Shadow-scoring sink (not owned; must outlive the predictor). When set
  /// and the registry lease carries a shadow model, every healthy batch is
  /// additionally run through the shadow and the agreement/latency tallies
  /// are recorded here (see shadow_evaluator.h). nullptr = no shadow
  /// scoring, even if a shadow is published.
  ShadowEvaluator* shadow_evaluator = nullptr;
};

/// Collects prediction requests across sessions into micro-batches and runs
/// them through the active model's forest on the shared thread pool
/// (`RandomForest::PredictWithProba` parallelizes over batch rows).
///
/// Dispatch is work-conserving: the moment the worker is free it takes up
/// to max_batch_size queued requests, never waiting for more to arrive. A
/// batch therefore holds exactly the requests that queued while the
/// previous one ran, so batches stay small (low latency) under light load
/// and grow by themselves toward max_batch_size under heavy load. Submit
/// wakes the worker only when it is idle on an empty queue.
///
/// Batching is a pure throughput optimization: forest rows are
/// independent, so a request's answer is bit-identical whatever batch it
/// lands in — the per-request determinism contract (pinned by
/// tests/serve_test.cc).
///
/// Each model snapshot is taken once per batch from the registry, so all
/// requests of a batch are served by one consistent (forest, subset)
/// pair even across a hot swap.
///
/// Request lifecycle (DESIGN.md §9): a submitted PredictRequest either
///  - is shed at admission (queue full, ResourceExhausted),
///  - expires while queued or before its batch runs (DeadlineExceeded),
///  - resolves Unavailable on a transient fault when it still has retry
///    budget (the caller resubmits, see common/retry.h), or
///  - is answered — by the active model, by the cached previous-good model
///    snapshot, or by the label-prior majority class, with the rung
///    recorded in Prediction::degradation.
/// Every submitted request resolves exactly one of these ways.
class BatchPredictor {
 public:
  /// `registry` must outlive the predictor.
  explicit BatchPredictor(const ModelRegistry* registry,
                          BatchPredictorOptions options = {});

  /// Drains and answers every pending request, then stops the worker.
  ~BatchPredictor();

  BatchPredictor(const BatchPredictor&) = delete;
  BatchPredictor& operator=(const BatchPredictor&) = delete;

  /// Enqueues one request. The future resolves when the request's
  /// micro-batch is processed — with a Prediction, or with a Status per
  /// the lifecycle above (a bad request only fails itself, not its batch
  /// neighbours).
  std::future<Result<Prediction>> Submit(PredictRequest request);

  /// Processes everything currently pending on the calling thread (e.g.
  /// end-of-replay, before gathering futures).
  void Flush();

  /// Lifetime counters: plain integers under the queue mutex. A
  /// ServingPlane publishes them to the metrics registry
  /// (serving_plane.h).
  struct Counters {
    size_t requests = 0;           // Accepted into the queue.
    size_t batches = 0;
    size_t max_batch = 0;          // Largest batch dispatched.
    size_t shed = 0;               // Rejected or preempted at admission:
    size_t shed_queue_full = 0;    //   the newcomer, queue at max_queue;
    size_t shed_preempted = 0;     //   a lower-priority queued victim.
    size_t deadline_exceeded = 0;  // Expired while queued / pre-dispatch.
    size_t degraded = 0;           // Answered below DegradationLevel::kNone:
    size_t degraded_previous_model = 0;  // by the last-good snapshot;
    size_t degraded_majority_class = 0;  // by the label prior.
    size_t unavailable = 0;        // Resolved retryable (budget remaining).
  };
  Counters counters() const;

 private:
  struct Request {
    std::vector<double> features;
    RequestContext context;
    std::promise<Result<Prediction>> promise;
    std::chrono::steady_clock::time_point enqueue;
  };

  /// Per-dispatcher buffers: the batch taken off the queue plus the
  /// predict inputs and outputs. The worker keeps one for its lifetime, so
  /// a batch allocates only the answers it hands out; Flush uses its own.
  struct BatchScratch {
    std::vector<Request> batch;
    /// Features of the well-formed requests, and their index in `batch`.
    std::vector<const std::vector<double>*> rows;
    std::vector<size_t> row_to_request;
    PredictScratch active;
    PredictScratch shadow;
  };

  /// Background loop: sweeps expired requests, then takes the next batch
  /// as soon as anything is queued; sleeps only on an empty queue.
  void WorkerLoop();

  /// Resolves every queued request whose deadline has passed with
  /// DeadlineExceeded and recomputes min_deadline_. Precondition: `mu_`
  /// held.
  void SweepExpiredLocked(std::chrono::steady_clock::time_point now);

  /// Replaces `batch` with up to max_batch_size requests off the queue.
  /// Precondition: `mu_` held.
  void TakeBatchLocked(std::vector<Request>* batch);

  /// Answers scratch->batch (fault draw, deadline re-check, degradation
  /// chain, per-row validation, forest).
  void ProcessBatch(BatchScratch* scratch);

  /// Resolves `request` with the label-prior majority class (degradation
  /// rung kMajorityClass). False when no prior is configured.
  bool AnswerWithLabelPrior(Request& request,
                            std::chrono::steady_clock::time_point done);

  /// Last model that successfully served an undegraded batch.
  std::shared_ptr<const ServingModel> LastGoodModel() const;

  /// Stores the queue depth into the per-shard gauge when sharded, the
  /// global one otherwise.
  void SetQueueDepthGauge(double depth);

  const ModelRegistry* registry_;
  BatchPredictorOptions options_;

  /// Global-registry handles, resolved once in the constructor so the
  /// dispatch paths pay only relaxed atomic updates: the
  /// serve.batch_predictor.batches counter, the queue_depth gauge, and the
  /// batch_size and latency_seconds (enqueue→completion) histograms. The
  /// request lifecycle outcomes are counted only in counters_.
  obs::Counter& metric_batches_;
  obs::Gauge& metric_queue_depth_;
  obs::Histogram& metric_batch_size_;
  obs::Histogram& metric_latency_;
  /// serve.shard<i>.batch_predictor.queue_depth, resolved only when
  /// BatchPredictorOptions::shard >= 0; null otherwise. A sharded
  /// predictor writes only this one, so shards do not clobber each
  /// other's depth.
  obs::Gauge* shard_queue_depth_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> pending_;
  /// Earliest deadline among queued requests, so the sweep can skip a
  /// queue with nothing due; time_point::max() when none has one. May be
  /// stale-early after TakeBatchLocked (the sweep then finds nothing
  /// expired and recomputes) — never stale-late. No timed wait needs it:
  /// the worker never sleeps while requests are queued.
  std::chrono::steady_clock::time_point min_deadline_ =
      std::chrono::steady_clock::time_point::max();
  /// True while the worker waits on an empty queue; the Submit that ends
  /// the wait clears it and is the only one to notify. The worker raises
  /// it again before every sleep, whatever woke it.
  bool worker_idle_ = false;
  bool stop_ = false;
  Counters counters_;

  /// Degradation rung 1: the snapshot that served the most recent
  /// undegraded batch, used when the registry has no usable model.
  mutable std::mutex last_good_mu_;
  std::shared_ptr<const ServingModel> last_good_;

  /// Only the worker thread touches this.
  BatchScratch worker_scratch_;
  std::thread worker_;
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_BATCH_PREDICTOR_H_
