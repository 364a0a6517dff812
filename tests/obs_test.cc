// Tests of the observability layer (src/obs/): histogram bucket and
// quantile correctness, concurrent counter/histogram updates (run under
// TSan via the `concurrency` ctest label), golden-file JSON and Prometheus
// exports (deterministic ordering is part of the contract), and scoped
// timers.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace trajkit::obs {
namespace {

HistogramOptions Bounds(std::vector<double> bounds) {
  HistogramOptions options;
  options.bucket_bounds = std::move(bounds);
  return options;
}

TEST(CounterTest, IncrementsAndReads) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  gauge.Set(2.0);
  gauge.Add(0.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

TEST(HistogramTest, BucketAssignmentUsesInclusiveUpperBounds) {
  Histogram histogram(Bounds({1.0, 2.0, 5.0}));
  histogram.Observe(0.5);   // le=1
  histogram.Observe(1.0);   // le=1 (boundary is inclusive)
  histogram.Observe(1.5);   // le=2
  histogram.Observe(5.0);   // le=5
  histogram.Observe(100.0); // +Inf
  const HistogramSnapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.sum, 108.0);
}

TEST(HistogramTest, QuantileInterpolatesWithinBuckets) {
  Histogram histogram(Bounds({10.0, 20.0, 30.0}));
  histogram.Observe(5.0);
  histogram.Observe(15.0);
  histogram.Observe(15.0);
  histogram.Observe(25.0);
  const HistogramSnapshot snap = histogram.snapshot();
  // p50: rank 2 of 4 falls in the (10, 20] bucket holding observations
  // 2..3 — halfway through it, interpolated to 15.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 15.0);
  // p99: rank 3.96 in the (20, 30] bucket, whose upper edge clamps to the
  // observed max 25: 20 + (25-20) * 0.96.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 24.8);
  // p0 pins to the observed minimum's bucket start.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 5.0);
  // p100 is the observed maximum.
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 25.0);
}

TEST(HistogramTest, QuantileEdgeCases) {
  Histogram empty(Bounds({1.0}));
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);

  Histogram single(Bounds({10.0}));
  single.Observe(7.0);
  // One observation: every quantile is that value (edges clamp to it).
  EXPECT_DOUBLE_EQ(single.Quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(single.Quantile(0.99), 7.0);

  Histogram overflow_only(Bounds({1.0}));
  overflow_only.Observe(50.0);
  overflow_only.Observe(60.0);
  // All mass in +Inf: quantiles stay inside the observed range.
  EXPECT_GE(overflow_only.Quantile(0.5), 50.0);
  EXPECT_LE(overflow_only.Quantile(0.99), 60.0);
}

TEST(HistogramTest, ConcurrentObservesKeepTotalMass) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Histogram histogram(HistogramOptions::LatencySeconds());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Observe(1e-6 * static_cast<double>((t * 31 + i) % 1000));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t mass = 0;
  for (const uint64_t bucket : snap.buckets) mass += bucket;
  EXPECT_EQ(mass, snap.count);
}

TEST(HistogramTest, ExemplarsTrackLastTraceIdPerBucket) {
  Histogram histogram(Bounds({1.0, 2.0}));
  histogram.Observe(0.5);        // plain Observe: no exemplar
  histogram.Observe(0.7, 11);    // bucket le=1
  histogram.Observe(1.5, 12);    // bucket le=2
  histogram.Observe(1.6, 13);    // bucket le=2: last exemplar wins
  histogram.Observe(5.0, 14);    // +Inf bucket
  const HistogramSnapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.exemplar_ids.size(), 3u);
  EXPECT_EQ(snap.exemplar_ids[0], 11u);
  EXPECT_DOUBLE_EQ(snap.exemplar_values[0], 0.7);
  EXPECT_EQ(snap.exemplar_ids[1], 13u);
  EXPECT_DOUBLE_EQ(snap.exemplar_values[1], 1.6);
  EXPECT_EQ(snap.exemplar_ids[2], 14u);
  // An untraced observation (id 0) never clobbers a bucket's exemplar —
  // exemplars must always point at a resolvable trace.
  histogram.Observe(0.9, 0);
  EXPECT_EQ(histogram.snapshot().exemplar_ids[0], 11u);
}

TEST(HistogramTest, QuantileBucketIndexLocatesTheQuantileMass) {
  Histogram histogram(Bounds({10.0, 20.0, 30.0}));
  histogram.Observe(5.0, 1);
  histogram.Observe(15.0, 2);
  histogram.Observe(15.0, 3);
  histogram.Observe(25.0, 4);
  const HistogramSnapshot snap = histogram.snapshot();
  // Same bucket walk as Quantile(): p50 rank 2 of 4 lands in the (10, 20]
  // bucket; p99 rank 3.96 in (20, 30]; p0 pins to the first non-empty.
  EXPECT_EQ(snap.QuantileBucketIndex(0.50), 1u);
  EXPECT_EQ(snap.QuantileBucketIndex(0.99), 2u);
  EXPECT_EQ(snap.QuantileBucketIndex(0.0), 0u);
  // The exemplar the index selects is the p99 witness: trace 4.
  EXPECT_EQ(snap.exemplar_ids[snap.QuantileBucketIndex(0.99)], 4u);
  // Empty snapshot: index 0 (callers check exemplar_ids[0] == 0).
  EXPECT_EQ(HistogramSnapshot{}.QuantileBucketIndex(0.99), 0u);
}

TEST(MetricsRegistryTest, ExemplarsAppearInExportsOnlyWhenRecorded) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("h", Bounds({1.0}));
  histogram.Observe(0.5);
  // Exemplar-free: byte-identical to the pre-exemplar export shape.
  EXPECT_EQ(registry.ToJson().find("exemplar"), std::string::npos);
  EXPECT_EQ(registry.ToPrometheusText().find("trace_id"),
            std::string::npos);
  histogram.Observe(0.25, 42);
  EXPECT_NE(registry.ToJson().find(
                "\"exemplar_trace_id\": \"42\", \"exemplar_value\": 0.25"),
            std::string::npos)
      << registry.ToJson();
  // OpenMetrics-style bucket exemplar.
  EXPECT_NE(registry.ToPrometheusText().find("# {trace_id=\"42\"} 0.25"),
            std::string::npos)
      << registry.ToPrometheusText();
}

TEST(MetricsRegistryTest, HandlesAreStable) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.GetHistogram("h", Bounds({1.0}));
  // Options only apply on creation; the same histogram comes back.
  Histogram& h2 = registry.GetHistogram("h", Bounds({1.0, 2.0, 3.0}));
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    // Every thread resolves the handle itself: lookup and increment must
    // both be thread-safe.
    threads.emplace_back([&registry] {
      Counter& counter = registry.GetCounter("shared");
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("shared").value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, FindLookupsNeverCreate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("missing"), nullptr);
  EXPECT_EQ(registry.FindGauge("missing"), nullptr);
  EXPECT_EQ(registry.FindHistogram("missing"), nullptr);
  EXPECT_EQ(registry.InfoValue("missing"), "");
  // The lookups did not materialize anything: the export stays empty.
  EXPECT_EQ(registry.ToPrometheusText(), "");

  registry.GetCounter("c").Increment(5);
  registry.GetGauge("g").Set(1.5);
  registry.GetHistogram("h").Observe(0.1);
  registry.SetInfo("k", "v");
  ASSERT_NE(registry.FindCounter("c"), nullptr);
  EXPECT_EQ(registry.FindCounter("c")->value(), 5u);
  ASSERT_NE(registry.FindGauge("g"), nullptr);
  EXPECT_DOUBLE_EQ(registry.FindGauge("g")->value(), 1.5);
  ASSERT_NE(registry.FindHistogram("h"), nullptr);
  EXPECT_EQ(registry.FindHistogram("h")->count(), 1u);
  EXPECT_EQ(registry.InfoValue("k"), "v");
}

/// A registry with one metric of each kind and hand-computable values —
/// shared by the two golden-export tests.
void FillGoldenRegistry(MetricsRegistry& registry) {
  registry.GetCounter("a").Increment(3);
  registry.GetGauge("g").Set(2.5);
  Histogram& h = registry.GetHistogram("h", Bounds({1.0, 2.0}));
  h.Observe(0.5);
  h.Observe(1.5);
  registry.SetInfo("k", "v");
}

TEST(MetricsRegistryTest, GoldenJsonExport) {
  MetricsRegistry registry;
  FillGoldenRegistry(registry);
  // p50: rank 1 of 2 — the first bucket, edges [min=0.5, 1]: exactly 1.
  // p90: rank 1.8 — second bucket, edges [1, max=1.5]: 1 + 0.5*0.8 = 1.4.
  // p99: 1 + 0.5*0.98 = 1.49.
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"a\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"g\": 2.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"h\": {\"count\": 2, \"sum\": 2, \"min\": 0.5, \"max\": 1.5, "
      "\"mean\": 1, \"p50\": 1, \"p90\": 1.4, \"p99\": 1.49, \"buckets\": "
      "[{\"le\": 1, \"count\": 1}, {\"le\": 2, \"count\": 1}, "
      "{\"le\": \"+Inf\", \"count\": 0}]}\n"
      "  },\n"
      "  \"info\": {\n"
      "    \"k\": \"v\"\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(registry.ToJson(), expected);
  // Determinism: a second export of unchanged state is byte-identical.
  EXPECT_EQ(registry.ToJson(), expected);
}

TEST(MetricsRegistryTest, GoldenPrometheusExport) {
  MetricsRegistry registry;
  FillGoldenRegistry(registry);
  const std::string expected =
      "# HELP test_a trajkit metric a\n"
      "# TYPE test_a counter\n"
      "test_a 3\n"
      "# HELP test_g trajkit metric g\n"
      "# TYPE test_g gauge\n"
      "test_g 2.5\n"
      "# HELP test_h trajkit metric h\n"
      "# TYPE test_h histogram\n"
      "test_h_bucket{le=\"1\"} 1\n"
      "test_h_bucket{le=\"2\"} 2\n"
      "test_h_bucket{le=\"+Inf\"} 2\n"
      "test_h_sum 2\n"
      "test_h_count 2\n"
      "# HELP test_k trajkit metric k\n"
      "# TYPE test_k gauge\n"
      "test_k{value=\"v\"} 1\n";
  EXPECT_EQ(registry.ToPrometheusText("test_"), expected);
}

TEST(MetricsRegistryTest, PrometheusNamesAreSanitized) {
  MetricsRegistry registry;
  registry.GetCounter("serve.sessions.closed.mode-change").Increment();
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("trajkit_serve_sessions_closed_mode_change 1"),
            std::string::npos);
}

TEST(MetricsRegistryTest, EmptyRegistryExportsValidSkeleton) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.ToJson(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {},\n  \"info\": {}\n}\n");
  EXPECT_EQ(registry.ToPrometheusText(), "");
}

TEST(ScopedTimerTest, RecordsOnceIntoHistogram) {
  MetricsRegistry registry;
  Histogram& histogram =
      registry.GetHistogram("t", HistogramOptions::DurationSeconds());
  {
    ScopedTimer timer(histogram);
    const double recorded = timer.Stop();
    EXPECT_GE(recorded, 0.0);
    EXPECT_DOUBLE_EQ(timer.Stop(), 0.0);  // Second Stop is a no-op.
  }  // Destructor must not double-record.
  EXPECT_EQ(histogram.count(), 1u);

  {
    ScopedTimer named("t2", registry);
  }
  EXPECT_EQ(registry.GetHistogram("t2").count(), 1u);
}

}  // namespace
}  // namespace trajkit::obs
