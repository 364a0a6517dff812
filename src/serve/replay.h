#ifndef TRAJKIT_SERVE_REPLAY_H_
#define TRAJKIT_SERVE_REPLAY_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "core/label_sets.h"
#include "serve/serving_plane.h"
#include "serve/session_manager.h"
#include "traj/types.h"

namespace trajkit::serve {

class ContinuousTrainer;

/// Knobs of a corpus replay. The session-layer and batching configuration
/// live on the ServingPlane the replay drives (ServingPlaneOptions).
struct ReplayOptions {
  /// Per-request deadline measured from submission; 0 (default) = none.
  double deadline_seconds = 0.0;
  /// Resubmissions allowed per request on a transient (Unavailable)
  /// failure. 0 (default) = never resubmit. Resubmission rounds are paced
  /// by `retry` (jittered exponential backoff from a fixed seed).
  int retry_budget = 0;
  RetryOptions retry;
  /// Observer invoked once per closed segment, in close order, at the
  /// first replay barrier after the segment's answer resolves: a trainer
  /// step, a telemetry tick, every 1024 closes since the last barrier, and
  /// end of stream. Every barrier drains all in-flight requests, so it
  /// delivers every segment closed before it; `ingest_seconds` includes
  /// the deliveries of all but the end-of-stream barrier.
  /// `predicted_class` is the label set class the predictor answered, or
  /// -1 when the segment was not evaluated (outside the label set, shed,
  /// or deadline-exceeded). `serve-replay --store_out` persists a
  /// trajectory store through this.
  std::function<void(const ClosedSegment& segment, int predicted_class)>
      closed_sink;
  /// Telemetry tick barrier: every `tick_every_segments` closed segments
  /// the replay drains all in-flight requests and then invokes `tick` —
  /// the same drain-then-mutate contract as the trainer barrier, so a
  /// TimeSeriesStore sampled inside the callback sees quiescent metrics
  /// at a position that is a pure function of the corpus (byte-identical
  /// series at any thread/shard count). A final tick fires after the
  /// end-of-stream drain. 0 (default) = no ticks. With ticks installed,
  /// `ingest_seconds` includes the barrier drains (the tick-overhead
  /// bench phase measures exactly this).
  size_t tick_every_segments = 0;
  std::function<void()> tick;
  /// Continuous trainer driven at replay-step barriers (not owned;
  /// nullptr = continuous training off). The replay feeds it every
  /// labeled closed segment and every gathered outcome; whenever the
  /// trainer reports StepDue(), the replay drains all in-flight requests
  /// and only then runs the trainer step — so refit installs, promotions,
  /// and retirements land at deterministic corpus positions and the
  /// replay output stays byte-identical at any thread/shard count. With a
  /// trainer installed, `ingest_seconds` includes these barrier drains.
  ContinuousTrainer* trainer = nullptr;
};

/// Outcome of a replay.
struct ReplayReport {
  size_t points = 0;
  size_t segments_closed = 0;
  /// Segments whose mode is inside the label set (the ones predicted and
  /// scored).
  size_t segments_evaluated = 0;
  /// Closed segments skipped because their mode is outside the label set.
  size_t segments_outside_label_set = 0;
  size_t correct = 0;
  /// Requests resolved DeadlineExceeded (expired while queued).
  size_t deadline_exceeded = 0;
  /// Requests shed by admission control (ResourceExhausted).
  size_t shed = 0;
  /// Requests answered below DegradationLevel::kNone (previous-good model
  /// or label-prior majority class); these still count as evaluated.
  size_t degraded = 0;
  /// Per-rung breakdown of `degraded` (degraded == previous_model +
  /// majority_class): CI asserts each rung of the chain is exercised,
  /// not just the total.
  size_t degraded_previous_model = 0;
  size_t degraded_majority_class = 0;
  /// Resubmissions performed after transient (Unavailable) failures.
  size_t retries = 0;
  /// True class / predicted class per evaluated segment, in close order.
  std::vector<int> y_true;
  std::vector<int> y_pred;
  /// Wall time spent in the ingest loop, from the first fix to the
  /// end-of-stream flush: the barrier drains inside it and their sink
  /// deliveries included, the end-of-stream drain excluded.
  double ingest_seconds = 0.0;
  /// Final session-layer counters, summed across the plane's shards.
  SessionManagerStats session_stats;

  double accuracy() const {
    return segments_evaluated == 0
               ? 0.0
               : static_cast<double>(correct) /
                     static_cast<double>(segments_evaluated);
  }
};

/// Replays a labelled corpus through the online stack in global timestamp
/// order: a k-way merge over the trajectories feeds points one at a time
/// into `plane` (session id = user id, routed to the user's shard), every
/// closed in-label-set segment is submitted to the shard's predictor, and
/// predictions are scored against the annotated modes. Per-trajectory
/// order is preserved exactly (the merge never reorders a user's own
/// fixes), so the session layer sees the same streams the offline
/// segmenter reads — and because the plane interleaves its end-of-stream
/// flush closes in globally ascending session-id order, the report (and
/// every output derived from it) is byte-identical at any shard count.
///
/// Each drain ends with `plane.PublishMetrics()`, so the registry's
/// serving counters equal the plane's stats at every barrier.
///
/// Every submitted request is accounted for exactly once in the report:
/// evaluated (possibly degraded), shed, or deadline-exceeded. Transient
/// (Unavailable) failures are resubmitted with backoff (to the same
/// user's shard) while the request's retry budget lasts; any other error
/// aborts the replay with that status.
Result<ReplayReport> ReplayCorpus(const std::vector<traj::Trajectory>& corpus,
                                  const core::LabelSet& labels,
                                  ServingPlane& plane,
                                  const ReplayOptions& options = {});

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_REPLAY_H_
