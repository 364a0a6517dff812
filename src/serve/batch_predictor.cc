#include "serve/batch_predictor.h"

#include <algorithm>
#include <utility>

#include "common/retry.h"
#include "common/strings.h"
#include "obs/request_trace.h"
#include "serve/fault_injector.h"
#include "serve/shadow_evaluator.h"

namespace trajkit::serve {

namespace {

/// Records a request's terminal outcome and, for bad outcomes, tail-keeps
/// its trace so the flight recorder cannot overwrite it before export.
void TraceTerminal(obs::RequestTracer& tracer, uint64_t trace_id,
                   const char* outcome, uint64_t at_ns, bool tail_keep) {
  if (trace_id == 0) return;
  tracer.RecordInstant(trace_id, outcome, obs::TracePhase::kTerminal, at_ns);
  if (tail_keep) tracer.Retain(trace_id);
}

}  // namespace

BatchPredictor::BatchPredictor(const ModelRegistry* registry,
                               BatchPredictorOptions options)
    : registry_(registry),
      options_(std::move(options)),
      metric_batches_(obs::MetricsRegistry::Global().GetCounter(
          "serve.batch_predictor.batches")),
      metric_queue_depth_(obs::MetricsRegistry::Global().GetGauge(
          "serve.batch_predictor.queue_depth")),
      metric_batch_size_(obs::MetricsRegistry::Global().GetHistogram(
          "serve.batch_predictor.batch_size",
          obs::HistogramOptions::Exponential(1.0, 2.0, 11))),
      metric_latency_(obs::MetricsRegistry::Global().GetHistogram(
          "serve.batch_predictor.latency_seconds",
          obs::HistogramOptions::LatencySeconds())) {
  if (options_.max_batch_size == 0) options_.max_batch_size = 1;
  if (options_.shard >= 0) {
    shard_queue_depth_ = &obs::MetricsRegistry::Global().GetGauge(StrPrintf(
        "serve.shard%d.batch_predictor.queue_depth", options_.shard));
  }
  worker_ = std::thread([this] { WorkerLoop(); });
}

BatchPredictor::~BatchPredictor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

std::future<Result<Prediction>> BatchPredictor::Submit(
    PredictRequest predict_request) {
  Request request;
  request.features = std::move(predict_request.features);
  request.context = predict_request.context;
  request.enqueue = std::chrono::steady_clock::now();
  std::future<Result<Prediction>> future = request.promise.get_future();

  obs::RequestTracer& tracer = obs::RequestTracer::Global();
  const bool traced = tracer.enabled();
  if (traced && request.context.trace_id == 0) {
    request.context.trace_id = tracer.Mint();
  }
  const uint64_t trace_id = request.context.trace_id;
  const uint64_t enqueue_ns = traced ? tracer.ToNs(request.enqueue) : 0;
  if (traced) {
    tracer.RecordInstant(trace_id, "submit", obs::TracePhase::kSubmit,
                         enqueue_ns, static_cast<uint64_t>(
                             request.context.priority < 0
                                 ? 0
                                 : request.context.priority));
  }

  // Fast-fail a request that arrives already expired: it would only be
  // swept later without ever being batchable. Counters are updated
  // before the promise resolves, so a caller woken by the future always
  // sees them accounted.
  if (request.context.has_deadline() &&
      request.context.deadline <= request.enqueue) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.deadline_exceeded;
    }
    request.promise.set_value(
        Status::DeadlineExceeded("request deadline passed before enqueue"));
    if (traced) {
      TraceTerminal(tracer, trace_id, "deadline_exceeded", tracer.NowNs(),
                    /*tail_keep=*/true);
    }
    return future;
  }

  size_t depth = 0;
  bool wake_worker = false;
  bool shed_incoming = false;
  bool shed_victim = false;
  uint64_t victim_trace_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.max_queue > 0 && pending_.size() >= options_.max_queue) {
      // High-watermark load shedding: drop the lowest-priority request.
      // min_element picks the first (= oldest) request of the lowest
      // priority class, the one closest to expiring anyway.
      auto victim = std::min_element(
          pending_.begin(), pending_.end(),
          [](const Request& a, const Request& b) {
            return a.context.priority < b.context.priority;
          });
      if (victim != pending_.end() &&
          victim->context.priority < request.context.priority) {
        victim_trace_id = victim->context.trace_id;
        victim->promise.set_value(Status::ResourceExhausted(StrPrintf(
            "shed: preempted by priority-%d request (queue full at %zu)",
            request.context.priority, pending_.size())));
        pending_.erase(victim);
        shed_victim = true;
        ++counters_.shed_preempted;
      } else {
        request.promise.set_value(Status::ResourceExhausted(StrPrintf(
            "shed: queue full at %zu and no lower-priority victim",
            pending_.size())));
        shed_incoming = true;
        ++counters_.shed_queue_full;
      }
      ++counters_.shed;
    }
    if (!shed_incoming) {
      if (request.context.has_deadline()) {
        min_deadline_ = std::min(min_deadline_, request.context.deadline);
      }
      pending_.push_back(std::move(request));
      ++counters_.requests;
      depth = pending_.size();
      wake_worker = worker_idle_;
      worker_idle_ = false;
    }
  }
  if (shed_incoming) {
    if (traced) {
      TraceTerminal(tracer, trace_id, "shed", tracer.NowNs(),
                    /*tail_keep=*/true);
    }
    return future;
  }
  if (shed_victim && traced) {
    TraceTerminal(tracer, victim_trace_id, "shed", tracer.NowNs(),
                  /*tail_keep=*/true);
  }
  // A busy worker finds this request when it next looks at the queue.
  if (wake_worker) cv_.notify_one();
  // The gauge after the notify so the worker's wakeup is not delayed.
  SetQueueDepthGauge(static_cast<double>(depth));
  return future;
}

void BatchPredictor::Flush() {
  BatchScratch scratch;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.empty()) return;
      TakeBatchLocked(&scratch.batch);
    }
    ProcessBatch(&scratch);
  }
}

BatchPredictor::Counters BatchPredictor::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void BatchPredictor::SweepExpiredLocked(
    std::chrono::steady_clock::time_point now) {
  if (now < min_deadline_) return;
  obs::RequestTracer& tracer = obs::RequestTracer::Global();
  const bool traced = tracer.enabled();
  const uint64_t now_ns = traced ? tracer.ToNs(now) : 0;
  auto new_min = std::chrono::steady_clock::time_point::max();
  size_t expired = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->context.deadline <= now) {
      const uint64_t trace_id = it->context.trace_id;
      it->promise.set_value(Status::DeadlineExceeded(StrPrintf(
          "deadline passed while queued (waited %.3f ms)",
          std::chrono::duration<double, std::milli>(now - it->enqueue)
              .count())));
      ++counters_.deadline_exceeded;
      ++expired;
      it = pending_.erase(it);
      if (traced) {
        TraceTerminal(tracer, trace_id, "deadline_exceeded", now_ns,
                      /*tail_keep=*/true);
      }
    } else {
      new_min = std::min(new_min, it->context.deadline);
      ++it;
    }
  }
  min_deadline_ = new_min;
  if (expired > 0) {
    SetQueueDepthGauge(static_cast<double>(pending_.size()));
  }
}

void BatchPredictor::TakeBatchLocked(std::vector<Request>* batch) {
  const size_t take = std::min(pending_.size(), options_.max_batch_size);
  batch->clear();
  for (size_t i = 0; i < take; ++i) {
    batch->push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  ++counters_.batches;
  counters_.max_batch = std::max(counters_.max_batch, take);
  // min_deadline_ may now be stale-early (it could belong to a taken
  // request); the next sweep recomputes it, at worst one wasted scan.
  // A gauge store is cheap enough to keep under the lock; the batch
  // histogram observes happen in ProcessBatch, outside it.
  SetQueueDepthGauge(static_cast<double>(pending_.size()));
}

void BatchPredictor::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Every queued request is either swept here or re-checked when its
    // batch starts, and the worker never sleeps with requests queued, so
    // no expiry needs a timed wake-up.
    SweepExpiredLocked(std::chrono::steady_clock::now());
    if (pending_.empty()) {
      if (stop_) return;
      // Re-armed on every sleep: a Submit clears the flag before this
      // wakes, and a Flush on the caller thread may empty the queue in
      // between, so a predicate wait would sleep again with the flag
      // down and no later Submit would notify.
      worker_idle_ = true;
      cv_.wait(lock);
      worker_idle_ = false;
      continue;
    }
    // Work-conserving: whatever queued while the last batch ran is the
    // next batch, however small.
    TakeBatchLocked(&worker_scratch_.batch);
    lock.unlock();
    ProcessBatch(&worker_scratch_);
    lock.lock();
  }
}

bool BatchPredictor::AnswerWithLabelPrior(
    Request& request, std::chrono::steady_clock::time_point done) {
  if (options_.label_prior.empty()) return false;
  Prediction prediction;
  prediction.degradation = DegradationLevel::kMajorityClass;
  prediction.model_version = "label_prior";
  const auto& prior = options_.label_prior;
  double total = 0.0;
  for (const double weight : prior) total += weight;
  prediction.label = static_cast<int>(
      std::max_element(prior.begin(), prior.end()) - prior.begin());
  prediction.probabilities.resize(prior.size(), 0.0);
  for (size_t i = 0; i < prior.size(); ++i) {
    prediction.probabilities[i] = total > 0.0 ? prior[i] / total : 0.0;
  }
  prediction.latency_seconds =
      std::chrono::duration<double>(done - request.enqueue).count();
  obs::RequestTracer& tracer = obs::RequestTracer::Global();
  const uint64_t trace_id = request.context.trace_id;
  uint64_t exemplar_id = 0;
  if (tracer.enabled() && trace_id != 0) {
    const uint64_t done_ns = tracer.ToNs(done);
    tracer.RecordInstant(trace_id, "degraded/majority_class",
                         obs::TracePhase::kDegraded, done_ns);
    TraceTerminal(tracer, trace_id, "done", done_ns, /*tail_keep=*/true);
    exemplar_id = trace_id;  // tail-kept, so the dump can resolve it
  }
  metric_latency_.Observe(prediction.latency_seconds, exemplar_id);
  request.promise.set_value(std::move(prediction));
  return true;
}

std::shared_ptr<const ServingModel> BatchPredictor::LastGoodModel() const {
  std::lock_guard<std::mutex> lock(last_good_mu_);
  return last_good_;
}

void BatchPredictor::SetQueueDepthGauge(double depth) {
  if (shard_queue_depth_ != nullptr) {
    shard_queue_depth_->Set(depth);
  } else {
    metric_queue_depth_.Set(depth);
  }
}

void BatchPredictor::ProcessBatch(BatchScratch* scratch) {
  std::vector<Request>& batch = scratch->batch;
  if (batch.empty()) return;
  metric_batches_.Increment();
  metric_batch_size_.Observe(static_cast<double>(batch.size()));

  FaultInjector::BatchFaults faults;
  if (options_.fault_injector != nullptr) {
    faults = options_.fault_injector->Next();
  }
  if (faults.delay_seconds > 0.0) SleepForSeconds(faults.delay_seconds);

  // Deadline re-check at processing start: a request can expire between
  // dispatch and here (notably under an injected batch delay).
  const auto start = std::chrono::steady_clock::now();

  obs::RequestTracer& tracer = obs::RequestTracer::Global();
  const bool traced = tracer.enabled();
  const uint64_t start_ns = traced ? tracer.ToNs(start) : 0;
  bool fault_hit = false;
  if (traced) {
    for (const Request& request : batch) {
      const uint64_t trace_id = request.context.trace_id;
      if (trace_id == 0) continue;
      // Queue span: enqueue -> batch-processing start (includes any
      // injected batch delay, which is exactly what the caller waited).
      tracer.RecordSpan(trace_id, "queue", obs::TracePhase::kQueue,
                        tracer.ToNs(request.enqueue), start_ns,
                        static_cast<uint64_t>(batch.size()));
      if (faults.delay_seconds > 0.0) {
        tracer.RecordInstant(trace_id, "fault/batch_delay",
                             obs::TracePhase::kFault, start_ns);
      }
      if (faults.stall_registry) {
        tracer.RecordInstant(trace_id, "fault/swap_stall",
                             obs::TracePhase::kFault, start_ns);
      }
      if (faults.fail_predict) {
        tracer.RecordInstant(trace_id, "fault/predict_fail",
                             obs::TracePhase::kFault, start_ns);
      }
    }
    fault_hit = faults.any();
  }

  // Counters are updated before any promise resolves so a caller woken
  // by its future always finds its request accounted.
  const auto expired = [start](const Request& request) {
    return request.context.has_deadline() && request.context.deadline <= start;
  };
  const size_t num_expired =
      static_cast<size_t>(std::count_if(batch.begin(), batch.end(), expired));
  if (num_expired > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.deadline_exceeded += num_expired;
    }
    // Resolve the expired requests and close the live ones up, in order.
    size_t kept = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!expired(batch[i])) {
        if (kept != i) batch[kept] = std::move(batch[i]);
        ++kept;
        continue;
      }
      const uint64_t trace_id = batch[i].context.trace_id;
      batch[i].promise.set_value(Status::DeadlineExceeded(
          "deadline passed before the batch was processed"));
      if (traced) {
        TraceTerminal(tracer, trace_id, "deadline_exceeded", start_ns,
                      /*tail_keep=*/true);
      }
    }
    batch.erase(batch.begin() + static_cast<ptrdiff_t>(kept), batch.end());
  }
  std::vector<Request>& live = batch;
  if (live.empty()) return;

  // Degradation rung 0 -> 1: active model from one coherent lease, else
  // the cached previous-good snapshot. An injected swap stall makes the
  // registry unusable for this batch, exactly like a wedged hot swap
  // would — no lease at all, so no shadow scoring either.
  DegradationLevel level = DegradationLevel::kNone;
  ModelLease lease;
  if (!faults.stall_registry) lease = registry_->Acquire();
  std::shared_ptr<const ServingModel> model = lease.active;
  if (model == nullptr) {
    lease.shadow = nullptr;
    model = LastGoodModel();
    if (model != nullptr) level = DegradationLevel::kPreviousModel;
  }

  // An injected transient predict failure: requests that still carry retry
  // budget resolve retryable (the caller resubmits with backoff); spent
  // requests drop to the majority-class rung so they terminate.
  if (faults.fail_predict) {
    size_t unavailable = 0;
    size_t degraded = 0;
    for (const Request& request : live) {
      // Mirrors the answer loop below: AnswerWithLabelPrior succeeds
      // exactly when a prior is configured.
      if (request.context.retry_budget <= 0 && !options_.label_prior.empty()) {
        ++degraded;
      } else {
        ++unavailable;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.unavailable += unavailable;
      counters_.degraded += degraded;
      counters_.degraded_majority_class += degraded;
    }
    for (Request& request : live) {
      if (request.context.retry_budget <= 0 &&
          AnswerWithLabelPrior(request, start)) {
        continue;
      }
      const uint64_t trace_id = request.context.trace_id;
      request.promise.set_value(
          Status::Unavailable("injected transient predict failure"));
      if (traced) {
        TraceTerminal(tracer, trace_id, "unavailable", start_ns,
                      /*tail_keep=*/true);
      }
    }
    return;
  }

  // Degradation rung 2: no usable model at all — majority class from the
  // label prior, or the pre-degradation error when none is configured.
  if (model == nullptr) {
    if (!options_.label_prior.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.degraded += live.size();
      counters_.degraded_majority_class += live.size();
    }
    for (Request& request : live) {
      if (AnswerWithLabelPrior(request, start)) continue;
      request.promise.set_value(
          Status::FailedPrecondition("no active model in the registry"));
    }
    return;
  }

  // Per-request validation first, so one malformed vector fails only its own
  // future instead of poisoning the batch.
  const size_t expected = static_cast<size_t>(model->num_input_features);
  std::vector<const std::vector<double>*>& rows = scratch->rows;
  std::vector<size_t>& row_to_request = scratch->row_to_request;
  rows.clear();
  row_to_request.clear();
  for (size_t i = 0; i < live.size(); ++i) {
    if (live[i].features.size() != expected) {
      const uint64_t trace_id = live[i].context.trace_id;
      live[i].promise.set_value(Status::InvalidArgument(StrPrintf(
          "feature vector has %zu values, model '%s' expects %zu",
          live[i].features.size(), model->version.c_str(), expected)));
      if (traced) {
        TraceTerminal(tracer, trace_id, "failed", start_ns,
                      /*tail_keep=*/true);
      }
      continue;
    }
    rows.push_back(&live[i].features);
    row_to_request.push_back(i);
  }
  if (rows.empty()) return;
  const auto predict_start = std::chrono::steady_clock::now();
  const Status predicted = model->PredictRows(rows, &scratch->active);
  const auto done = std::chrono::steady_clock::now();
  const uint64_t done_ns = traced ? tracer.ToNs(done) : 0;
  if (!predicted.ok()) {
    for (const size_t i : row_to_request) {
      const uint64_t trace_id = live[i].context.trace_id;
      live[i].promise.set_value(predicted);
      if (traced) {
        TraceTerminal(tracer, trace_id, "failed", done_ns,
                      /*tail_keep=*/true);
      }
    }
    return;
  }
  if (level == DegradationLevel::kNone) {
    std::lock_guard<std::mutex> lock(last_good_mu_);
    last_good_ = model;
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.degraded += row_to_request.size();
    counters_.degraded_previous_model += row_to_request.size();
  }
  const uint64_t predict_start_ns = traced ? tracer.ToNs(predict_start) : 0;
  const std::vector<int>& labels = scratch->active.labels;

  // Shadow scoring: the candidate answers the exact rows the active model
  // just served. Its labels ride along inside the Prediction (never served
  // as the answer) and the per-batch agreement/latency tallies feed the
  // promotion policy. Only healthy active answers are compared — the
  // degraded rungs would skew the verdict. Tallies land in the evaluator
  // before any promise resolves, so a driver that has gathered every
  // future is guaranteed to see the complete window.
  const std::vector<int>* shadow_labels = nullptr;
  uint64_t shadow_start_ns = 0;
  uint64_t shadow_done_ns = 0;
  if (level == DegradationLevel::kNone && lease.shadow != nullptr &&
      options_.shadow_evaluator != nullptr) {
    const auto shadow_start = std::chrono::steady_clock::now();
    const Status shadowed = lease.shadow->PredictRows(rows, &scratch->shadow);
    const auto shadow_done = std::chrono::steady_clock::now();
    if (shadowed.ok()) {
      shadow_labels = &scratch->shadow.labels;
      size_t agreements = 0;
      for (size_t r = 0; r < rows.size(); ++r) {
        if ((*shadow_labels)[r] == labels[r]) ++agreements;
      }
      options_.shadow_evaluator->ObserveBatch(
          lease.shadow->version, rows.size(), agreements,
          std::chrono::duration<double>(done - predict_start).count(),
          std::chrono::duration<double>(shadow_done - shadow_start).count());
      if (traced) {
        shadow_start_ns = tracer.ToNs(shadow_start);
        shadow_done_ns = tracer.ToNs(shadow_done);
      }
    }
  }

  for (size_t r = 0; r < rows.size(); ++r) {
    Request& request = live[row_to_request[r]];
    Prediction prediction;
    prediction.label = labels[r];
    const std::span<const double> probabilities =
        scratch->active.probabilities.Row(r);
    prediction.probabilities.assign(probabilities.begin(),
                                    probabilities.end());
    prediction.model_version = model->version;
    if (shadow_labels != nullptr) {
      prediction.shadow_label = (*shadow_labels)[r];
      prediction.shadow_version = lease.shadow->version;
    }
    prediction.degradation = level;
    prediction.latency_seconds =
        std::chrono::duration<double>(done - request.enqueue).count();
    uint64_t exemplar_id = 0;
    const uint64_t trace_id = request.context.trace_id;
    if (traced && trace_id != 0) {
      tracer.RecordSpan(trace_id, "batch", obs::TracePhase::kBatch, start_ns,
                        done_ns, static_cast<uint64_t>(live.size()));
      tracer.RecordSpan(trace_id, "predict", obs::TracePhase::kPredict,
                        predict_start_ns, done_ns,
                        static_cast<uint64_t>(rows.size()));
      if (shadow_labels != nullptr) {
        tracer.RecordSpan(trace_id, "shadow", obs::TracePhase::kPredict,
                          shadow_start_ns, shadow_done_ns,
                          static_cast<uint64_t>(rows.size()));
      }
      if (level == DegradationLevel::kPreviousModel) {
        tracer.RecordInstant(trace_id, "degraded/previous_model",
                             obs::TracePhase::kDegraded, done_ns);
      }
      const bool tail_keep = level != DegradationLevel::kNone || fault_hit;
      TraceTerminal(tracer, trace_id, "done", done_ns, tail_keep);
      // Exemplars must resolve inside the trace dump: attach the id only
      // when this trace is exported (head-sampled or just tail-kept).
      if (tail_keep || tracer.Sampled(trace_id)) exemplar_id = trace_id;
    }
    metric_latency_.Observe(prediction.latency_seconds, exemplar_id);
    request.promise.set_value(std::move(prediction));
  }
}

}  // namespace trajkit::serve
