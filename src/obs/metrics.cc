#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace trajkit::obs {

namespace {

/// Portable atomic double accumulation (fetch_add on atomic<double> is
/// C++20 but not universally lowered well; the CAS loop is equivalent).
void AtomicAdd(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Deterministic double rendering for exports: %.12g keeps quantiles and
/// sums readable while staying byte-stable for golden comparisons.
std::string FormatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", v);
  return buffer;
}

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else becomes
/// '_' so "serve.sessions.active" exports as serve_sessions_active.
std::string SanitizePrometheusName(std::string_view prefix,
                                   std::string_view name) {
  std::string out(prefix);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

void Gauge::Add(double delta) { AtomicAdd(value_, delta); }

HistogramOptions HistogramOptions::Exponential(double first, double factor,
                                               int count) {
  HistogramOptions options;
  double bound = first;
  for (int i = 0; i < count; ++i) {
    options.bucket_bounds.push_back(bound);
    bound *= factor;
  }
  return options;
}

HistogramOptions HistogramOptions::LatencySeconds() {
  HistogramOptions options;
  for (int decade = -6; decade < 1; ++decade) {
    const double base = std::pow(10.0, decade);
    options.bucket_bounds.push_back(base);
    options.bucket_bounds.push_back(base * 2.5);
    options.bucket_bounds.push_back(base * 5.0);
  }
  options.bucket_bounds.push_back(10.0);
  return options;
}

HistogramOptions HistogramOptions::DurationSeconds() {
  HistogramOptions options;
  for (int decade = -4; decade < 2; ++decade) {
    const double base = std::pow(10.0, decade);
    options.bucket_bounds.push_back(base);
    options.bucket_bounds.push_back(base * 2.5);
    options.bucket_bounds.push_back(base * 5.0);
  }
  options.bucket_bounds.push_back(100.0);
  return options;
}

Histogram::Histogram(HistogramOptions options)
    : bounds_(std::move(options.bucket_bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  exemplar_ids_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  exemplar_values_ = std::make_unique<std::atomic<double>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i] = 0;
    exemplar_ids_[i] = 0;
    exemplar_values_[i] = 0.0;
  }
}

void Histogram::Observe(double value, uint64_t exemplar_trace_id) {
  // Prometheus `le` semantics: a value equal to a bound belongs to that
  // bound's bucket, hence lower_bound (first bound >= value).
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  if (exemplar_trace_id != 0) {
    exemplar_values_[bucket].store(value, std::memory_order_relaxed);
    exemplar_ids_[bucket].store(exemplar_trace_id, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, value);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.resize(bounds_.size() + 1);
  // Derive the total from the bucket reads themselves so a concurrent
  // Observe can never make quantile ranks exceed the bucket mass.
  snap.exemplar_ids.resize(bounds_.size() + 1);
  snap.exemplar_values.resize(bounds_.size() + 1);
  uint64_t total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snap.buckets[i];
    snap.exemplar_ids[i] = exemplar_ids_[i].load(std::memory_order_relaxed);
    snap.exemplar_values[i] =
        exemplar_values_[i].load(std::memory_order_relaxed);
  }
  snap.count = total;
  snap.sum = sum_.load(std::memory_order_relaxed);
  if (total > 0) {
    snap.min = min_.load(std::memory_order_relaxed);
    snap.max = max_.load(std::memory_order_relaxed);
  }
  return snap;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    const uint64_t previous = cumulative;
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) < target) continue;
    // Bucket edges clamped to the observed range: small samples and the
    // overflow bucket then report real values instead of ±Inf bounds.
    const double lower =
        std::max(b == 0 ? min : bounds[b - 1], min);
    const double upper =
        std::min(b < bounds.size() ? bounds[b] : max, max);
    if (upper <= lower) return lower;
    const double fraction =
        (target - static_cast<double>(previous)) /
        static_cast<double>(buckets[b]);
    return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
  }
  return max;
}

size_t HistogramSnapshot::QuantileBucketIndex(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  size_t last_nonempty = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    last_nonempty = b;
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) >= target) return b;
  }
  return last_nonempty;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         const HistogramOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(options))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::SetInfo(std::string_view name, std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  info_[std::string(name)] = std::string(value);
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::InfoValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = info_.find(name);
  return it == info_.end() ? std::string() : it->second;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(out, name);
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), ": %llu",
                  static_cast<unsigned long long>(counter->value()));
    out += buffer;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(out, name);
    out += ": " + FormatDouble(gauge->value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    const HistogramSnapshot snap = histogram->snapshot();
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(out, name);
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), ": {\"count\": %llu",
                  static_cast<unsigned long long>(snap.count));
    out += buffer;
    out += ", \"sum\": " + FormatDouble(snap.sum);
    out += ", \"min\": " + FormatDouble(snap.min);
    out += ", \"max\": " + FormatDouble(snap.max);
    out += ", \"mean\": " +
           FormatDouble(snap.count == 0
                            ? 0.0
                            : snap.sum / static_cast<double>(snap.count));
    out += ", \"p50\": " + FormatDouble(snap.Quantile(0.50));
    out += ", \"p90\": " + FormatDouble(snap.Quantile(0.90));
    out += ", \"p99\": " + FormatDouble(snap.Quantile(0.99));
    out += ", \"buckets\": [";
    for (size_t b = 0; b < snap.buckets.size(); ++b) {
      if (b > 0) out += ", ";
      out += "{\"le\": ";
      if (b < snap.bounds.size()) {
        out += FormatDouble(snap.bounds[b]);
      } else {
        out += "\"+Inf\"";
      }
      std::snprintf(buffer, sizeof(buffer), ", \"count\": %llu",
                    static_cast<unsigned long long>(snap.buckets[b]));
      out += buffer;
      // Exemplar fields appear only when an exemplar was recorded, so
      // exemplar-free registries export byte-identically to before.
      if (b < snap.exemplar_ids.size() && snap.exemplar_ids[b] != 0) {
        std::snprintf(buffer, sizeof(buffer),
                      ", \"exemplar_trace_id\": \"%llu\"",
                      static_cast<unsigned long long>(snap.exemplar_ids[b]));
        out += buffer;
        out += ", \"exemplar_value\": " +
               FormatDouble(snap.exemplar_values[b]);
      }
      out += "}";
    }
    out += "]}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"info\": {";
  first = true;
  for (const auto& [name, value] : info_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(out, name);
    out += ": ";
    AppendJsonString(out, value);
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string MetricsRegistry::ToPrometheusText(std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buffer[64];
  for (const auto& [name, counter] : counters_) {
    const std::string metric = SanitizePrometheusName(prefix, name);
    out += "# HELP " + metric + " trajkit metric " + name + "\n";
    out += "# TYPE " + metric + " counter\n";
    std::snprintf(buffer, sizeof(buffer), " %llu\n",
                  static_cast<unsigned long long>(counter->value()));
    out += metric + buffer;
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string metric = SanitizePrometheusName(prefix, name);
    out += "# HELP " + metric + " trajkit metric " + name + "\n";
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + FormatDouble(gauge->value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const HistogramSnapshot snap = histogram->snapshot();
    const std::string metric = SanitizePrometheusName(prefix, name);
    out += "# HELP " + metric + " trajkit metric " + name + "\n";
    out += "# TYPE " + metric + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < snap.buckets.size(); ++b) {
      cumulative += snap.buckets[b];
      out += metric + "_bucket{le=\"";
      out += b < snap.bounds.size() ? FormatDouble(snap.bounds[b]) : "+Inf";
      std::snprintf(buffer, sizeof(buffer), "\"} %llu",
                    static_cast<unsigned long long>(cumulative));
      out += buffer;
      // OpenMetrics-style exemplar: `# {trace_id="N"} value`, emitted
      // only when the bucket has one (keeps exemplar-free output
      // byte-identical to the pre-exemplar format).
      if (b < snap.exemplar_ids.size() && snap.exemplar_ids[b] != 0) {
        std::snprintf(buffer, sizeof(buffer), " # {trace_id=\"%llu\"} ",
                      static_cast<unsigned long long>(snap.exemplar_ids[b]));
        out += buffer;
        out += FormatDouble(snap.exemplar_values[b]);
      }
      out += "\n";
    }
    out += metric + "_sum " + FormatDouble(snap.sum) + "\n";
    std::snprintf(buffer, sizeof(buffer), "_count %llu\n",
                  static_cast<unsigned long long>(snap.count));
    out += metric + buffer;
  }
  for (const auto& [name, value] : info_) {
    const std::string metric = SanitizePrometheusName(prefix, name);
    out += "# HELP " + metric + " trajkit metric " + name + "\n";
    out += "# TYPE " + metric + " gauge\n";
    std::string escaped;
    for (const char c : value) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    out += metric + "{value=\"" + escaped + "\"} 1\n";
  }
  return out;
}

bool WriteTextFile(const std::string& path, std::string_view content) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "metrics: cannot open '%s'\n", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), out);
  const bool ok = std::fclose(out) == 0 && written == content.size();
  if (!ok) std::fprintf(stderr, "metrics: short write to '%s'\n", path.c_str());
  return ok;
}

}  // namespace trajkit::obs
