#include "serve/statusz.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/strings.h"

namespace trajkit::serve {
namespace {

uint64_t CounterValue(const obs::MetricsRegistry& metrics,
                      std::string_view name) {
  const obs::Counter* counter = metrics.FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

double GaugeValue(const obs::MetricsRegistry& metrics,
                  std::string_view name) {
  const obs::Gauge* gauge = metrics.FindGauge(name);
  return gauge == nullptr ? 0.0 : gauge->value();
}

void Appendf(std::string& out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  out += buffer;
}

void AppendQuantileLine(std::string& out, const char* label, double q,
                        const obs::HistogramSnapshot& snap) {
  const size_t bucket = snap.QuantileBucketIndex(q);
  Appendf(out, "  %s: %.3f ms", label, snap.Quantile(q) * 1e3);
  if (bucket < snap.exemplar_ids.size() && snap.exemplar_ids[bucket] != 0) {
    Appendf(out, "  (exemplar trace %" PRIu64 ", %.3f ms)",
            snap.exemplar_ids[bucket], snap.exemplar_values[bucket] * 1e3);
  }
  out += "\n";
}

}  // namespace

std::string Sparkline(const std::vector<double>& values) {
  // Eight block characters, three bytes of UTF-8 each.
  static constexpr const char* kBlocks[] = {
      "\u2581", "\u2582", "\u2583", "\u2584",
      "\u2585", "\u2586", "\u2587", "\u2588"};
  double max = 0.0;
  for (const double v : values) {
    if (v > max) max = v;
  }
  std::string out;
  for (const double v : values) {
    int level = 0;
    if (max > 0.0 && v > 0.0) {
      level = static_cast<int>(v / max * 7.0 + 0.5);
      if (level < 0) level = 0;
      if (level > 7) level = 7;
    }
    out += kBlocks[level];
  }
  return out;
}

std::string RenderStatusPage(const obs::MetricsRegistry& metrics,
                             const obs::RequestTracer& tracer,
                             const StatusPageOptions& options) {
  std::string out = "==== trajkit statusz ====\n";

  out += "model\n";
  const std::string version = metrics.InfoValue("serve.registry.active_version");
  Appendf(out, "  active_version: %s\n",
          version.empty() ? "(none)" : version.c_str());
  Appendf(out, "  registered: %.0f\n",
          GaugeValue(metrics, "serve.registry.models"));
  Appendf(out, "  swaps: %" PRIu64 "  promotions: %" PRIu64 "\n",
          CounterValue(metrics, "serve.registry.swaps"),
          CounterValue(metrics, "serve.registry.promotions"));
  const std::string shadow_version =
      metrics.InfoValue("serve.registry.shadow_version");
  if (!shadow_version.empty()) {
    Appendf(out, "  shadow_version: %s\n", shadow_version.c_str());
  }
  // Compiled flat inference form of the active model (ml/flat_forest.h);
  // every fitted forest is compiled, so the line shows from the first
  // activation on.
  const double flat_nodes = GaugeValue(metrics, "serve.registry.flat_nodes");
  if (flat_nodes > 0.0) {
    Appendf(out, "  flat_form: compiled (%.0f nodes)\n", flat_nodes);
  }

  out += "queue\n";
  Appendf(out, "  depth: %.0f\n",
          GaugeValue(metrics, "serve.batch_predictor.queue_depth"));
  Appendf(out, "  requests: %" PRIu64 "\n",
          CounterValue(metrics, "serve.batch_predictor.requests"));
  Appendf(out, "  batches: %" PRIu64 "\n",
          CounterValue(metrics, "serve.batch_predictor.batches"));

  out += "lifecycle\n";
  const uint64_t shed_queue_full =
      CounterValue(metrics, "serve.shed_total.queue_full");
  const uint64_t shed_preempted =
      CounterValue(metrics, "serve.shed_total.preempted");
  Appendf(out,
          "  shed: %" PRIu64 " (queue_full=%" PRIu64 ", preempted=%" PRIu64
          ")\n",
          shed_queue_full + shed_preempted, shed_queue_full, shed_preempted);
  const uint64_t degraded_previous =
      CounterValue(metrics, "serve.degraded_total.previous_model");
  const uint64_t degraded_majority =
      CounterValue(metrics, "serve.degraded_total.majority_class");
  Appendf(out,
          "  degraded: %" PRIu64 " (previous_model=%" PRIu64
          ", majority_class=%" PRIu64 ")\n",
          degraded_previous + degraded_majority, degraded_previous,
          degraded_majority);
  Appendf(out, "  deadline_exceeded: %" PRIu64 "\n",
          CounterValue(metrics, "serve.deadline_exceeded_total"));
  Appendf(out, "  unavailable: %" PRIu64 "\n",
          CounterValue(metrics, "serve.unavailable_total"));

  out += "faults injected\n";
  Appendf(out, "  swap_stall: %" PRIu64 "\n",
          CounterValue(metrics, "serve.faults.injected.swap_stall"));
  Appendf(out, "  predict_fail: %" PRIu64 "\n",
          CounterValue(metrics, "serve.faults.injected.predict_fail"));
  Appendf(out, "  batch_delay: %" PRIu64 "\n",
          CounterValue(metrics, "serve.faults.injected.batch_delay"));

  // Shadow evaluation + continuous training (serve/continuous_training.h):
  // rendered only when a shadow has ever been scored / a trainer is live
  // in this process.
  out += "shadow\n";
  if (metrics.FindCounter("serve.shadow.samples") == nullptr) {
    out += "  (no data)\n";
  } else {
    Appendf(out, "  samples: %" PRIu64 "  agreement: %" PRIu64 "\n",
            CounterValue(metrics, "serve.shadow.samples"),
            CounterValue(metrics, "serve.shadow.agreement"));
    Appendf(out, "  accuracy_delta: %+.4f  latency_ratio: %.2f\n",
            GaugeValue(metrics, "serve.shadow.accuracy_delta"),
            GaugeValue(metrics, "serve.shadow.latency_ratio"));
  }
  out += "continuous training\n";
  if (metrics.FindCounter("serve.ct.steps") == nullptr) {
    out += "  (no data)\n";
  } else {
    Appendf(out, "  steps: %" PRIu64 "  refits: %" PRIu64
                 "  buffer: %.0f\n",
            CounterValue(metrics, "serve.ct.steps"),
            CounterValue(metrics, "serve.ct.refits"),
            GaugeValue(metrics, "serve.ct.buffer_size"));
    Appendf(out, "  shadows: %" PRIu64 "  promotions: %" PRIu64
                 "  retired: %" PRIu64 "\n",
            CounterValue(metrics, "serve.registry.shadow_installs"),
            CounterValue(metrics, "serve.registry.promotions"),
            CounterValue(metrics, "serve.registry.shadow_retired"));
    Appendf(out, "  drift: score=%.2f triggers=%" PRIu64 "\n",
            GaugeValue(metrics, "serve.ct.drift_score"),
            CounterValue(metrics, "serve.ct.drift_triggers"));
  }

  // Registry audit trail: the last few publish/promote/retire events,
  // mirrored by the registry into one info metric (" | "-joined).
  const std::string audit = metrics.InfoValue("serve.registry.audit");
  out += "registry audit (most recent last)\n";
  if (audit.empty()) {
    out += "  (no data)\n";
  } else {
    size_t begin = 0;
    while (begin <= audit.size()) {
      const size_t end = audit.find(" | ", begin);
      const std::string entry =
          audit.substr(begin, end == std::string::npos ? std::string::npos
                                                       : end - begin);
      if (!entry.empty()) Appendf(out, "  %s\n", entry.c_str());
      if (end == std::string::npos) break;
      begin = end + 3;
    }
  }

  // Per-shard breakdown (serve.shard<i>.*): rendered only when a sharded
  // ServingPlane is live in this process — shard 0's counters exist once
  // one was built. Counts attribute load; the unlabelled metrics above
  // stay the cross-shard aggregate.
  out += "shards\n";
  if (metrics.FindCounter("serve.shard0.sessions.points_ingested") ==
          nullptr &&
      metrics.FindCounter("serve.shard0.batch_predictor.requests") ==
          nullptr) {
    out += "  (no data)\n";
  } else {
    for (int s = 0;; ++s) {
      const std::string prefix = StrPrintf("serve.shard%d.", s);
      const bool has_sessions =
          metrics.FindCounter(prefix + "sessions.points_ingested") != nullptr;
      const bool has_predictor =
          metrics.FindCounter(prefix + "batch_predictor.requests") != nullptr;
      if (!has_sessions && !has_predictor) break;
      Appendf(out,
              "  shard %d: points=%" PRIu64 " segments=%" PRIu64
              " active=%.0f requests=%" PRIu64 " depth=%.0f shed=%" PRIu64
              " degraded=%" PRIu64 " deadline=%" PRIu64 "\n",
              s, CounterValue(metrics, prefix + "sessions.points_ingested"),
              CounterValue(metrics, prefix + "sessions.segments_emitted"),
              GaugeValue(metrics, prefix + "sessions.active"),
              CounterValue(metrics, prefix + "batch_predictor.requests"),
              GaugeValue(metrics, prefix + "batch_predictor.queue_depth"),
              CounterValue(metrics, prefix + "shed_total"),
              CounterValue(metrics, prefix + "degraded_total"),
              CounterValue(metrics, prefix + "deadline_exceeded_total"));
    }
  }

  out += "latency (serve.batch_predictor.latency_seconds)\n";
  const obs::Histogram* latency =
      metrics.FindHistogram("serve.batch_predictor.latency_seconds");
  if (latency == nullptr || latency->count() == 0) {
    out += "  (no observations)\n";
  } else {
    const obs::HistogramSnapshot snap = latency->snapshot();
    Appendf(out, "  count: %" PRIu64 "  mean: %.3f ms\n", snap.count,
            snap.count == 0
                ? 0.0
                : snap.sum / static_cast<double>(snap.count) * 1e3);
    AppendQuantileLine(out, "p50", 0.50, snap);
    AppendQuantileLine(out, "p90", 0.90, snap);
    AppendQuantileLine(out, "p99", 0.99, snap);
  }

  // Live telemetry: current SLO burn-rate state and recent-history
  // sparklines from the time-series store. Both render "(no data)" when
  // no telemetry plane is armed in this process.
  out += "slo\n";
  if (options.slo == nullptr || options.slo->states().empty()) {
    out += "  (no data)\n";
  } else {
    for (const obs::SloState& state : options.slo->states()) {
      Appendf(out,
              "  %s: %s  burn_fast=%.3g burn_slow=%.3g "
              "budget_remaining=%.3g transitions=%" PRIu64 "\n",
              state.name.c_str(), state.breached ? "BREACH" : "ok",
              state.burn_fast, state.burn_slow, state.budget_remaining,
              state.transitions);
    }
  }

  out += "timeseries\n";
  if (options.timeseries == nullptr ||
      options.timeseries->tick_count() == 0) {
    out += "  (no data)\n";
  } else {
    const obs::TimeSeriesStore& ts = *options.timeseries;
    Appendf(out, "  ticks: %zu (capacity %zu)\n", ts.tick_count(),
            ts.capacity());
    for (const auto& [name, kind] : ts.SeriesKinds()) {
      // Counters/histograms plot per-tick increments (a cumulative ramp
      // reads as a wedge, not a trend); gauges plot raw values.
      std::vector<double> values =
          ts.RecentSamples(name, options.sparkline_ticks + 1);
      if (kind != "gauge" && !values.empty()) {
        for (size_t i = values.size() - 1; i > 0; --i) {
          const double step = values[i] - values[i - 1];
          values[i] = step >= 0 ? step : values[i];
        }
        values.erase(values.begin());
      }
      Appendf(out, "  %-44s %s ", name.c_str(), kind.c_str());
      out += Sparkline(values);
      Appendf(out, " delta=%.6g rate=%.6g",
              ts.Delta(name, options.sparkline_ticks),
              ts.Rate(name, options.sparkline_ticks));
      if (kind == "histogram") {
        Appendf(out, " p99=%.3fms",
                ts.WindowedQuantile(name, 0.99, options.sparkline_ticks) *
                    1e3);
      }
      out += "\n";
    }
  }

  // Trajectory store (src/store/): rendered only when a store is live in
  // this process — the store.segments counter exists once one was built.
  out += "store\n";
  if (metrics.FindCounter("store.segments") == nullptr) {
    out += "  (no data)\n";
  } else {
    Appendf(out, "  segments: %.0f\n", GaugeValue(metrics, "store.size"));
    Appendf(out, "  ingested_total: %" PRIu64 "\n",
            CounterValue(metrics, "store.segments"));
    Appendf(out, "  index_nodes: %.0f  bulk_loads: %" PRIu64 "\n",
            GaugeValue(metrics, "store.index.nodes"),
            CounterValue(metrics, "store.bulk_loads"));
    Appendf(out, "  queries: %" PRIu64 "  nodes_visited: %" PRIu64
                 "  postings_skipped: %" PRIu64 "\n",
            CounterValue(metrics, "store.queries"),
            CounterValue(metrics, "store.query.nodes_visited"),
            CounterValue(metrics, "store.query.postings_skipped"));
    const obs::Histogram* query_latency =
        metrics.FindHistogram("store.query.latency_seconds");
    if (query_latency == nullptr || query_latency->count() == 0) {
      out += "  query latency: (no observations)\n";
    } else {
      const obs::HistogramSnapshot snap = query_latency->snapshot();
      Appendf(out, "  query latency: count %" PRIu64 "  p50 %.3f ms  "
                   "p99 %.3f ms\n",
              snap.count, snap.Quantile(0.50) * 1e3,
              snap.Quantile(0.99) * 1e3);
    }
  }

  const std::vector<obs::RetainedTraceInfo> retained =
      tracer.RetainedTraces();
  if (!tracer.enabled()) {
    out += "retained traces: (tracing disabled)\n";
  } else if (retained.empty()) {
    out += "retained traces: none (no bad outcomes tail-kept)\n";
  } else {
    const size_t show =
        retained.size() < options.max_retained_traces
            ? retained.size()
            : options.max_retained_traces;
    Appendf(out, "retained traces (%zu tail-kept, showing last %zu)\n",
            retained.size(), show);
    for (size_t i = retained.size() - show; i < retained.size(); ++i) {
      const obs::RetainedTraceInfo& info = retained[i];
      Appendf(out, "  trace %" PRIu64 "  events=%zu  outcome=%s", info.id,
              info.num_events, info.outcome);
      if (info.fault) out += "  fault";
      if (info.degraded) out += "  degraded";
      out += "\n";
    }
  }
  return out;
}

}  // namespace trajkit::serve
