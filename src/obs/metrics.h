#ifndef TRAJKIT_OBS_METRICS_H_
#define TRAJKIT_OBS_METRICS_H_

// Lock-cheap process metrics: monotonic counters, gauges, and fixed-bucket
// histograms with interpolated quantiles, collected in a MetricsRegistry and
// exportable as JSON or Prometheus text. Hot paths pay one relaxed atomic
// RMW per event (plus a ~20-entry binary search for histograms); the
// registry mutex is only taken on metric *lookup*, so call sites resolve
// their handles once and keep the reference (handles are stable for the
// registry's lifetime).
//
// This module depends only on the standard library so that trajkit_common
// (the thread pool) can use it without a dependency cycle.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace trajkit::obs {

/// Monotonically increasing event count. Thread-safe; increments are
/// relaxed atomics (no ordering is implied between metrics).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down (queue depth, open sessions, accumulated
/// idle seconds). Thread-safe; Add is a CAS loop (portable double add).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bucket layout of a histogram: ascending upper bounds; an overflow bucket
/// (+Inf) is always appended implicitly.
struct HistogramOptions {
  std::vector<double> bucket_bounds;

  /// Exponential bounds: first, first*factor, ... (count values).
  static HistogramOptions Exponential(double first, double factor, int count);
  /// Latency buckets 1µs → 10s, three per decade (1 / 2.5 / 5): the default
  /// for request-scale timings.
  static HistogramOptions LatencySeconds();
  /// Coarser duration buckets 100µs → 100s for phase/fit-scale timings.
  static HistogramOptions DurationSeconds();
};

/// A point-in-time copy of a histogram's state; quantiles are computed on
/// the snapshot so p50/p90/p99 of one export line up with one bucket set.
struct HistogramSnapshot {
  std::vector<double> bounds;    ///< Upper bounds (without +Inf).
  std::vector<uint64_t> buckets; ///< Per-bucket counts, size bounds+1.
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0.
  double max = 0.0;  ///< 0 when count == 0.
  /// Per-bucket exemplars: the last trace id Observe()d into the bucket
  /// (0 = none) and the value it carried. Same size as `buckets`.
  std::vector<uint64_t> exemplar_ids;
  std::vector<double> exemplar_values;

  /// Interpolated quantile, q in [0, 1]: finds the bucket holding rank
  /// q*count and interpolates linearly between its edges, clamped to the
  /// observed [min, max]. Returns 0 when the histogram is empty.
  double Quantile(double q) const;

  /// Index of the bucket Quantile(q) reads its value from — the one
  /// holding rank q*count. With it, `exemplar_ids[QuantileBucketIndex(
  /// 0.99)]` links the p99 estimate to a concrete dumpable trace.
  /// Returns 0 when the histogram is empty.
  size_t QuantileBucketIndex(double q) const;
};

/// Fixed-bucket histogram. Observe() is wait-free per bucket (relaxed
/// fetch_add) plus CAS loops for sum/min/max; concurrent snapshots are
/// consistent enough for monitoring (bucket counts may trail `count` by
/// in-flight observations, never the reverse).
class Histogram {
 public:
  explicit Histogram(HistogramOptions options);

  void Observe(double value) { Observe(value, 0); }

  /// Observe with an exemplar: when `exemplar_trace_id` != 0 the bucket
  /// additionally remembers (trace id, value) as its last exemplar —
  /// the per-request trace behind that latency. Callers pass an id only
  /// for traces that will appear in the trace dump (sampled or
  /// tail-kept), so exports never reference an unresolvable trace.
  void Observe(double value, uint64_t exemplar_trace_id);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Convenience: Quantile on a fresh snapshot.
  double Quantile(double q) const { return snapshot().Quantile(q); }
  HistogramSnapshot snapshot() const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1.
  /// Per-bucket last exemplar, same length as buckets_. The (id, value)
  /// pair is written value-first with relaxed stores: a torn read can
  /// mismatch id and value across racing observations, which is fine
  /// for monitoring (both halves are real observations).
  std::unique_ptr<std::atomic<uint64_t>[]> exemplar_ids_;
  std::unique_ptr<std::atomic<double>[]> exemplar_values_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Named metrics, one namespace per kind. Get* returns a stable reference,
/// creating the metric on first use (GetHistogram's options only apply at
/// creation). Exports are ordered by name, so two exports of the same
/// state are byte-identical — tests golden-compare them.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation point uses.
  /// Never destroyed (pool workers may still record during exit).
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(
      std::string_view name,
      const HistogramOptions& options = HistogramOptions::LatencySeconds());

  /// Sets a string-valued info metric (e.g. the active model version).
  void SetInfo(std::string_view name, std::string_view value);

  /// Read-only lookups that never create: nullptr / "" when the metric
  /// does not exist. Used by status pages that render a subset of the
  /// registry without materializing absent metrics.
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;
  std::string InfoValue(std::string_view name) const;

  /// One JSON object: {"counters": {...}, "gauges": {...}, "histograms":
  /// {name: {count,sum,min,max,mean,p50,p90,p99,buckets:[{le,count}...]}},
  /// "info": {...}} — keys sorted, doubles formatted with %.12g.
  std::string ToJson() const;

  /// Prometheus text exposition: names are prefixed and sanitized
  /// ([^a-zA-Z0-9_:] -> '_'), every family gets a `# HELP`/`# TYPE`
  /// pair, histograms use cumulative `_bucket{le=...}` series, info
  /// metrics become `<name>{value="..."} 1` gauges.
  std::string ToPrometheusText(std::string_view prefix = "trajkit_") const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> info_;
};

/// Writes `content` to `path`, returning false (with a stderr note) on
/// failure — mirrors bench::TimingJson's contract without a Status dep.
bool WriteTextFile(const std::string& path, std::string_view content);

}  // namespace trajkit::obs

#endif  // TRAJKIT_OBS_METRICS_H_
