#include "serve/replay.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <utility>

#include "common/stopwatch.h"
#include "obs/request_trace.h"
#include "serve/continuous_training.h"

namespace trajkit::serve {
namespace {

/// A cursor into one trajectory, ordered by its current point's merge key
/// (earliest first; ties broken by trajectory index for determinism).
/// The key is the point's timestamp when finite, else the previous key of
/// its trajectory (-inf for a leading point): the session layer drops a
/// non-finite fix, and NaN would break the heap's strict weak order.
struct Cursor {
  double timestamp;
  size_t trajectory;
  size_t point;
};

double MergeKey(double timestamp, double previous_key) {
  return std::isfinite(timestamp) ? timestamp : previous_key;
}

constexpr uint64_t kRetrySeed = 0x72657472790aULL;  // Backoff jitter.

/// Segments closed since the last drain that force one. A replay without
/// ticks or a trainer has no other barrier before end of stream; this
/// bounds what it stages and keeps in flight. It counts closes, so the
/// drain positions are a pure function of the corpus, like the ticks.
constexpr size_t kMaxPendingSegments = 1024;

struct CursorLater {
  bool operator()(const Cursor& a, const Cursor& b) const {
    if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
    return a.trajectory > b.trajectory;
  }
};

/// Replaces the top of `heap` (a std heap under CursorLater, so the
/// earliest cursor on top) with `cursor` and sifts it down: one pass where
/// a pop and a push take two.
void ReplaceTop(std::vector<Cursor>& heap, const Cursor& cursor) {
  const CursorLater later;
  const size_t n = heap.size();
  size_t hole = 0;
  for (size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && later(heap[child], heap[child + 1])) ++child;
    if (!later(cursor, heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = cursor;
}

}  // namespace

Result<ReplayReport> ReplayCorpus(const std::vector<traj::Trajectory>& corpus,
                                  const core::LabelSet& labels,
                                  ServingPlane& plane,
                                  const ReplayOptions& options) {
  ReplayReport report;

  // K-way merge: pop the cursor with the earliest current point, advance
  // it. A user's own fixes are never reordered — out-of-order fixes inside
  // a trajectory reach the session in file order and are dropped there,
  // exactly like the offline cleaner.
  // (merge key, trajectory) is a total order, so any heap pops the same
  // sequence.
  std::vector<Cursor> merge;
  for (size_t t = 0; t < corpus.size(); ++t) {
    if (!corpus[t].points.empty()) {
      merge.push_back(
          Cursor{MergeKey(corpus[t].points[0].timestamp,
                          -std::numeric_limits<double>::infinity()),
                 t, 0});
    }
  }
  std::make_heap(merge.begin(), merge.end(), CursorLater());

  // One submitted request; `features` is retained only while the request
  // still has retry budget (a resubmission needs the payload again).
  struct InFlight {
    int true_class = -1;
    int budget = 0;
    /// Routing key: resubmits must land on the same user's shard.
    int64_t user_id = 0;
    uint64_t trace_id = 0;
    /// Index into `staged` when a closed sink is installed; -1 otherwise.
    ptrdiff_t staged = -1;
    std::vector<double> features;
    std::future<Result<Prediction>> future;
  };
  const auto make_context = [&options] {
    RequestContext context;
    if (options.deadline_seconds > 0.0) {
      context = RequestContext::WithTimeout(options.deadline_seconds);
    }
    context.retry_budget = options.retry_budget;
    return context;
  };

  std::vector<ClosedSegment> closed;
  std::vector<InFlight> in_flight;
  // A closed segment waiting for its delivery to options.closed_sink, with
  // the class the predictor answered (-1 until then, and for good when it
  // is not evaluated). Every drain resolves and delivers all of them, so
  // `staged` holds at most one barrier interval.
  struct Staged {
    ClosedSegment segment;
    int predicted = -1;
  };
  std::vector<Staged> staged;
  // report.segments_closed at the last drain (kMaxPendingSegments).
  size_t closed_at_drain = 0;
  const auto submit_closed = [&] {
    for (ClosedSegment& segment : closed) {
      ++report.segments_closed;
      ptrdiff_t staged_index = -1;
      if (options.closed_sink) {
        staged_index = static_cast<ptrdiff_t>(staged.size());
        staged.push_back({segment});  // Copy: features are moved out below.
      }
      const int true_class = labels.ClassOf(segment.mode);
      if (true_class < 0) {
        ++report.segments_outside_label_set;
        continue;
      }
      // The trainer buffers the labeled example before the features are
      // moved into the request below.
      if (options.trainer != nullptr) {
        options.trainer->ObserveSegment(segment, true_class);
      }
      InFlight item;
      item.true_class = true_class;
      item.budget = options.retry_budget;
      item.user_id = segment.user_id;
      item.trace_id = segment.trace_id;
      item.staged = staged_index;
      if (item.budget > 0) item.features = segment.features;
      RequestContext context = make_context();
      // Propagate the trace minted at segment close, so the session hop
      // and the prediction hop share one request trace.
      context.trace_id = segment.trace_id;
      item.future = plane.Submit(
          item.user_id, PredictRequest(std::move(segment.features), context));
      in_flight.push_back(std::move(item));
    }
    closed.clear();
  };

  // Drains every in-flight request, gathering in rounds: transient
  // failures with remaining budget are resubmitted (one backoff delay per
  // round, shared by that round's retries). Budgets strictly decrease, so
  // each drain terminates after at most retry_budget rounds. Then every
  // staged segment is resolved, the drain delivers them to the sink in
  // close order, and the plane publishes its counters. Runs at every
  // trainer step and telemetry tick barrier (so the registry and the
  // sampled metrics only ever change while nothing is in flight: the
  // determinism contract), every kMaxPendingSegments closes, and at end of
  // stream.
  Backoff backoff(options.retry, kRetrySeed);
  const auto drain = [&]() -> Status {
    std::vector<InFlight> round = std::move(in_flight);
    in_flight.clear();
    while (!round.empty()) {
      plane.FlushPredictors();
      std::vector<InFlight> next;
      for (InFlight& item : round) {
        Result<Prediction> result = item.future.get();
        if (result.ok()) {
          const Prediction& prediction = result.value();
          if (prediction.degradation != DegradationLevel::kNone) {
            ++report.degraded;
            if (prediction.degradation == DegradationLevel::kPreviousModel) {
              ++report.degraded_previous_model;
            } else if (prediction.degradation ==
                       DegradationLevel::kMajorityClass) {
              ++report.degraded_majority_class;
            }
          }
          ++report.segments_evaluated;
          report.y_true.push_back(item.true_class);
          report.y_pred.push_back(prediction.label);
          if (prediction.label == item.true_class) ++report.correct;
          if (item.staged >= 0) {
            staged[item.staged].predicted = prediction.label;
          }
          if (options.trainer != nullptr) {
            options.trainer->OnResult(item.true_class, prediction);
          }
          continue;
        }
        const Status& status = result.status();
        if (status.code() == StatusCode::kDeadlineExceeded) {
          ++report.deadline_exceeded;
          continue;
        }
        if (status.code() == StatusCode::kResourceExhausted) {
          ++report.shed;
          continue;
        }
        if (IsRetryableStatus(status) && item.budget > 0) {
          --item.budget;
          ++report.retries;
          obs::RequestTracer& tracer = obs::RequestTracer::Global();
          if (tracer.enabled() && item.trace_id != 0) {
            tracer.RecordInstant(item.trace_id, "retry",
                                 obs::TracePhase::kRetry, tracer.NowNs(),
                                 static_cast<uint64_t>(item.budget));
          }
          RequestContext context = make_context();
          context.retry_budget = item.budget;
          // The resubmission continues the same logical request: same
          // trace.
          context.trace_id = item.trace_id;
          // Keep the payload only while further retries are still
          // possible.
          std::vector<double> features;
          if (item.budget > 0) {
            features = item.features;
          } else {
            features = std::move(item.features);
          }
          item.future = plane.Submit(
              item.user_id, PredictRequest(std::move(features), context));
          next.push_back(std::move(item));
          continue;
        }
        return status;
      }
      if (!next.empty()) SleepForSeconds(backoff.NextDelaySeconds());
      round = std::move(next);
    }
    for (const Staged& entry : staged) {
      options.closed_sink(entry.segment, entry.predicted);
    }
    staged.clear();
    closed_at_drain = report.segments_closed;
    plane.PublishMetrics();
    return Status::Ok();
  };

  // Next segment count at which a telemetry tick barrier fires.
  size_t next_tick =
      options.tick && options.tick_every_segments > 0
          ? options.tick_every_segments
          : 0;

  Stopwatch ingest_timer;
  while (!merge.empty()) {
    const Cursor cursor = merge.front();
    const traj::Trajectory& trajectory = corpus[cursor.trajectory];
    const traj::TrajectoryPoint& point = trajectory.points[cursor.point];
    plane.Ingest(trajectory.user_id, point, &closed);
    ++report.points;
    if (!closed.empty()) submit_closed();
    // Trainer step barrier: the step count is a pure function of the
    // corpus (labeled segments observed), and the registry only mutates
    // after every already-submitted request has resolved — which model
    // answers which request cannot depend on thread/shard timing.
    if (options.trainer != nullptr && options.trainer->StepDue()) {
      TRAJKIT_RETURN_IF_ERROR(drain());
      TRAJKIT_RETURN_IF_ERROR(options.trainer->Step());
    }
    // Telemetry tick barrier: like the trainer step, the tick position is
    // a pure function of the corpus (segments closed so far), and the
    // store only samples after every in-flight request has resolved. A
    // burst of closes can make several ticks due at once; each fires, so
    // the tick count never depends on batching.
    while (next_tick > 0 && report.segments_closed >= next_tick) {
      TRAJKIT_RETURN_IF_ERROR(drain());
      options.tick();
      next_tick += options.tick_every_segments;
    }
    if (report.segments_closed - closed_at_drain >= kMaxPendingSegments) {
      TRAJKIT_RETURN_IF_ERROR(drain());
    }
    if (cursor.point + 1 < trajectory.points.size()) {
      ReplaceTop(merge,
                 Cursor{MergeKey(trajectory.points[cursor.point + 1].timestamp,
                                 cursor.timestamp),
                        cursor.trajectory, cursor.point + 1});
    } else {
      const Cursor last = merge.back();
      merge.pop_back();
      if (!merge.empty()) ReplaceTop(merge, last);
    }
  }
  plane.FlushAll(&closed);
  submit_closed();
  report.ingest_seconds = ingest_timer.ElapsedSeconds();

  TRAJKIT_RETURN_IF_ERROR(drain());
  if (options.trainer != nullptr) {
    TRAJKIT_RETURN_IF_ERROR(options.trainer->Finish());
  }
  // Final telemetry tick: the closing window covers the stream's tail
  // (and any trainer Finish() mutations) regardless of cadence phase.
  if (options.tick) options.tick();
  report.session_stats = plane.session_stats();
  return report;
}

}  // namespace trajkit::serve
