#ifndef TRAJKIT_OBS_TRACE_H_
#define TRAJKIT_OBS_TRACE_H_

// RAII timing on top of the metrics registry: ScopedTimer records one
// histogram observation at scope exit. The offline pipeline names its
// stage timers "span/pipeline/<stage>", so its stage tree shows up as a
// deterministic family of histogram names.

#include <chrono>
#include <string_view>

#include "obs/metrics.h"

namespace trajkit::obs {

/// Records elapsed seconds into a histogram when the scope ends (or at an
/// explicit Stop()). Cost: two steady_clock reads + one Observe.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(&histogram), start_(std::chrono::steady_clock::now()) {}
  /// Name-based convenience: resolves (or creates) the histogram in
  /// `registry`. Prefer the Histogram& form on hot paths.
  explicit ScopedTimer(
      std::string_view name,
      MetricsRegistry& registry = MetricsRegistry::Global(),
      const HistogramOptions& options = HistogramOptions::DurationSeconds())
      : ScopedTimer(registry.GetHistogram(name, options)) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { Stop(); }

  /// Records now instead of at scope exit; further Stop()s are no-ops.
  /// Returns the elapsed seconds that were recorded (0 if already stopped).
  double Stop();

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
  bool stopped_ = false;
};

}  // namespace trajkit::obs

#endif  // TRAJKIT_OBS_TRACE_H_
