#ifndef TRAJKIT_SERVE_REQUEST_H_
#define TRAJKIT_SERVE_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace trajkit::serve {

/// Per-request serving context, carried alongside the feature payload:
/// how long the caller will wait, how important the answer is, which
/// session it belongs to, and how many resubmissions it has left.
struct RequestContext {
  /// Absolute point after which the answer is worthless; requests whose
  /// deadline passes while queued resolve with Status::DeadlineExceeded
  /// instead of occupying a batch slot. The default (time_point::max())
  /// means "no deadline".
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Higher values survive load shedding longer; under a full queue the
  /// lowest-priority request is shed first.
  int priority = 0;
  /// Session the request belongs to (diagnostics; not used for routing).
  int64_t session_id = 0;
  /// Resubmissions the caller still intends to make. The predictor treats
  /// a transient failure differently depending on this: > 0 resolves with
  /// the retryable error (the caller will resubmit, see common/retry.h);
  /// 0 falls back to the degraded cheap path when one is configured.
  int retry_budget = 0;
  /// Request-scoped trace id (obs/request_trace.h). 0 = untraced; when
  /// tracing is enabled and the caller leaves it 0, Submit() mints one.
  /// Callers that resubmit (retries) or mint upstream (session close)
  /// set it so all hops of one logical request share a single trace.
  uint64_t trace_id = 0;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }

  /// Context expiring `seconds` from now (measured at the call).
  static RequestContext WithTimeout(double seconds) {
    RequestContext context;
    context.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    return context;
  }
};

/// One prediction request: a full-width feature vector plus its context.
struct PredictRequest {
  std::vector<double> features;
  RequestContext context;

  PredictRequest() = default;
  explicit PredictRequest(std::vector<double> features_in,
                          RequestContext context_in = {})
      : features(std::move(features_in)), context(context_in) {}
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_REQUEST_H_
