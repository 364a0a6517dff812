// Tests of the embedded HTTP scrape endpoint (src/obs/http_export.h):
// endpoint routing, the /metrics byte-identity contract, /healthz wired
// to SLO state, /quitquitquit, clean joinable shutdown, and concurrent
// scrapes racing a metric-writing ingest thread (run under TSan via the
// `concurrency` ctest label).

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http_fetch.h"
#include "obs/http_export.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace trajkit::obs {
namespace {

using test::Fetch;
using test::HttpReply;

TEST(HttpExportServerTest, StartsOnEphemeralPortAndStopsCleanly) {
  MetricsRegistry registry;
  HttpExportOptions options;
  options.registry = &registry;
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  // A second Start on a running server fails loudly.
  EXPECT_FALSE(server.Start(options, &error));
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
  // And the server is restartable after a clean stop.
  ASSERT_TRUE(server.Start(options, &error)) << error;
  EXPECT_EQ(Fetch(server.port(), "/healthz").status, 200);
  server.Stop();
}

TEST(HttpExportServerTest, MetricsScrapeMatchesFileDumpBytes) {
  MetricsRegistry registry;
  registry.GetCounter("serve.requests").Increment(42);
  registry.GetGauge("serve.depth").Set(1.5);
  registry.GetHistogram("serve.latency").Observe(0.01);
  HttpExportOptions options;
  options.registry = &registry;
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  const HttpReply reply = Fetch(server.port(), "/metrics");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.content_type, "text/plain; version=0.0.4; charset=utf-8");
  // The byte-identity contract with --metrics_prom: same registry state,
  // same bytes — and the scrape itself must not have mutated anything.
  EXPECT_EQ(reply.body, registry.ToPrometheusText("trajkit_"));
  const HttpReply json = Fetch(server.port(), "/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.body, registry.ToJson());
  EXPECT_EQ(reply.body, registry.ToPrometheusText("trajkit_"));
  EXPECT_GE(server.requests_served(), 2u);
  server.Stop();
}

TEST(HttpExportServerTest, RoutesUnwiredEndpointsTo404) {
  MetricsRegistry registry;
  HttpExportOptions options;
  options.registry = &registry;
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  EXPECT_EQ(Fetch(server.port(), "/timeseries.json").status, 404);
  EXPECT_EQ(Fetch(server.port(), "/statusz").status, 404);
  EXPECT_EQ(Fetch(server.port(), "/tracez").status, 404);
  EXPECT_EQ(Fetch(server.port(), "/quitquitquit").status, 404);
  EXPECT_EQ(Fetch(server.port(), "/nonsense").status, 404);
  EXPECT_EQ(Fetch(server.port(), "/metrics", "POST").status, 405);
  // /healthz with no SLO engine is vacuously healthy.
  const HttpReply healthz = Fetch(server.port(), "/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "ok\n");
  server.Stop();
}

TEST(HttpExportServerTest, WiredEndpointsServeTimeseriesStatuszAndQuit) {
  MetricsRegistry registry;
  registry.GetCounter("c").Increment(5);
  TimeSeriesStore store(registry);
  store.TrackCounter("c");
  store.Tick(0.0);
  std::atomic<int> quits{0};
  HttpExportOptions options;
  options.registry = &registry;
  options.timeseries = &store;
  options.statusz = [] { return std::string("status page body\n"); };
  options.on_quit = [&quits] { ++quits; };
  HttpExportServer server;
  std::string error;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  const HttpReply ts = Fetch(server.port(), "/timeseries.json");
  EXPECT_EQ(ts.status, 200);
  EXPECT_EQ(ts.body, store.ToJson());
  const HttpReply statusz = Fetch(server.port(), "/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_EQ(statusz.body, "status page body\n");
  const HttpReply quit = Fetch(server.port(), "/quitquitquit");
  EXPECT_EQ(quit.status, 200);
  EXPECT_EQ(quit.body, "bye\n");
  server.Stop();  // the owner stops the server; on_quit only signals
  EXPECT_EQ(quits.load(), 1);
}

TEST(HttpExportServerTest, HealthzReflectsSloBreach) {
  MetricsRegistry registry;
  Counter& bad = registry.GetCounter("bad");
  Counter& total = registry.GetCounter("total");
  TimeSeriesStore store(registry);
  std::vector<SloSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseSloSpecs(
      "shed:type=ratio,bad=bad,total=total,budget=0.5,fast=1,slow=1",
      &specs, &error))
      << error;
  SloEngine engine(&store, &registry, specs);
  HttpExportOptions options;
  options.registry = &registry;
  options.slo = &engine;
  HttpExportServer server;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  EXPECT_EQ(Fetch(server.port(), "/healthz").status, 200);
  // Drive the SLO into breach: 100% bad over both windows.
  store.Tick(0.0);
  engine.Evaluate(0);
  total.Increment(10);
  bad.Increment(10);
  store.Tick(1.0);
  engine.Evaluate(1);
  const HttpReply breaching = Fetch(server.port(), "/healthz");
  EXPECT_EQ(breaching.status, 503);
  EXPECT_EQ(breaching.body, "breaching: shed\n");
  // Recovery flips it back.
  total.Increment(10);
  store.Tick(2.0);
  engine.Evaluate(2);
  EXPECT_EQ(Fetch(server.port(), "/healthz").status, 200);
  server.Stop();
}

TEST(HttpExportServerTest, ConcurrentScrapesDuringIngestAreClean) {
  // The TSan contract: scrape threads hammer every read endpoint while an
  // ingest thread writes metrics and ticks the store, racing the whole
  // registry -> timeseries -> SLO -> HTTP read path.
  MetricsRegistry registry;
  Counter& requests = registry.GetCounter("serve.requests");
  Histogram& latency = registry.GetHistogram("serve.latency");
  TimeSeriesStore store(registry);
  std::vector<SloSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseSloSpecs(
      "lat:type=latency,metric=serve.latency,ceiling_ms=100,fast=2,slow=4",
      &specs, &error))
      << error;
  SloEngine engine(&store, &registry, specs);
  store.TrackCounter("serve.requests");
  HttpExportOptions options;
  options.registry = &registry;
  options.timeseries = &store;
  options.slo = &engine;
  HttpExportServer server;
  ASSERT_TRUE(server.Start(options, &error)) << error;
  const int port = server.port();

  std::atomic<bool> stop{false};
  std::thread ingest([&] {
    for (uint64_t tick = 0; !stop.load(std::memory_order_relaxed); ++tick) {
      requests.Increment(3);
      latency.Observe(0.005);
      store.Tick(static_cast<double>(tick));
      engine.Evaluate(tick);
    }
  });
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([port, t] {
      static constexpr const char* kPaths[] = {
          "/metrics", "/metrics.json", "/timeseries.json", "/healthz"};
      for (int i = 0; i < 8; ++i) {
        const HttpReply reply = Fetch(port, kPaths[(t + i) % 4]);
        EXPECT_EQ(reply.status, 200) << kPaths[(t + i) % 4];
        EXPECT_FALSE(reply.body.empty());
      }
    });
  }
  for (std::thread& scraper : scrapers) scraper.join();
  stop.store(true, std::memory_order_relaxed);
  ingest.join();
  EXPECT_GE(server.requests_served(), 32u);
  // Stop with no in-flight work left: the accept loop must join.
  server.Stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace trajkit::obs
