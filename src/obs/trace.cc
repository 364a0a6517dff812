#include "obs/trace.h"

namespace trajkit::obs {

double ScopedTimer::Stop() {
  if (stopped_) return 0.0;
  stopped_ = true;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  histogram_->Observe(seconds);
  return seconds;
}

}  // namespace trajkit::obs
