#include "serve/serving_stack.h"

#include <utility>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "serve/statusz.h"

namespace trajkit::serve {

ServingTelemetry::ServingTelemetry(size_t capacity,
                                   std::vector<obs::SloSpec> slo_specs)
    : timeseries_(obs::MetricsRegistry::Global(),
                  obs::TimeSeriesOptions{capacity}) {
  for (const char* name : kDeterministicCounters) {
    timeseries_.TrackCounter(name);
  }
  if (!slo_specs.empty()) {
    slo_.emplace(&timeseries_, &obs::MetricsRegistry::Global(),
                 std::move(slo_specs));
  }
}

void ServingTelemetry::Tick() {
  timeseries_.Tick(static_cast<double>(ticks_));
  if (slo_) slo_->Evaluate(ticks_);
  ++ticks_;
}

Result<std::unique_ptr<ServingStack>> ServingStack::Build(
    const ServeConfig& config, const HarnessOptions& harness,
    const std::vector<traj::Trajectory>& corpus,
    const core::LabelSet& labels, ServingModel model, bool keep_store) {
  std::unique_ptr<ServingStack> stack(
      new ServingStack(config, corpus, labels));
  ServingStack* self = stack.get();
  TRAJKIT_RETURN_IF_ERROR(self->registry_.Publish(std::move(model)));
  ServingPlaneOptions plane_options = config.MakePlaneOptions();
  self->replay_options_ = config.MakeReplayOptions();

  // Chaos runs get the degradation chain's last rung too, so a request
  // that exhausts its retry budget still resolves with an answer.
  if (config.fault_spec.has_value()) {
    self->injector_.emplace(config.fault_spec.value());
    plane_options.batching.fault_injector = &*self->injector_;
    self->label_prior_.assign(static_cast<size_t>(labels.num_classes()), 0.0);
    for (const traj::Trajectory& trajectory : corpus) {
      for (const traj::TrajectoryPoint& point : trajectory.points) {
        const int cls = labels.ClassOf(point.mode);
        if (cls >= 0) self->label_prior_[static_cast<size_t>(cls)] += 1.0;
      }
    }
    plane_options.batching.label_prior = self->label_prior_;
  }

  // Every shard's predictor scores into the trainer's shadow evaluator;
  // the replay drives its step barriers.
  if (config.ct.enabled) {
    self->trainer_.emplace(&self->registry_, labels, config.ct.MakeOptions());
    plane_options.batching.shadow_evaluator = &self->trainer_->evaluator();
    self->replay_options_.trainer = &*self->trainer_;
  }

  self->plane_.emplace(&self->registry_, std::move(plane_options));

  if (keep_store) {
    self->store_.emplace();
    self->replay_options_.closed_sink = [self](const ClosedSegment& segment,
                                               int predicted_class) {
      const traj::Mode predicted = predicted_class >= 0
                                       ? self->labels_.ModeOf(predicted_class)
                                       : segment.mode;
      self->store_->Ingest(store::FromClosedSegment(segment, predicted));
    };
  }

  // Ticks are replay barriers (nothing in flight), so the sampled series
  // and SLO transitions are a pure function of the corpus.
  if (config.telemetry_enabled() || !harness.timeseries_json.empty()) {
    self->telemetry_.emplace(config.timeseries_capacity, config.slo_specs);
    self->replay_options_.tick_every_segments = config.tick_every;
    self->replay_options_.tick = [self] { self->telemetry_->Tick(); };
  }

  if (config.http_port >= 0) {
    obs::HttpExportOptions http_options;
    http_options.port = config.http_port;
    http_options.registry = &obs::MetricsRegistry::Global();
    if (self->telemetry_) {
      http_options.timeseries = &self->telemetry_->timeseries();
      http_options.slo = self->telemetry_->slo();
    }
    if (obs::RequestTracer::Global().enabled()) {
      http_options.tracer = &obs::RequestTracer::Global();
    }
    http_options.statusz = [self] { return self->StatusPage(); };
    if (config.http_linger) {
      http_options.on_quit = [self] {
        self->quit_requested_ = true;
        self->quit_requested_.notify_all();
      };
    }
    std::string error;
    if (!self->http_.emplace().Start(std::move(http_options), &error)) {
      return Status::Unavailable(
          StrPrintf("--http_port=%d: %s", config.http_port, error.c_str()));
    }
  }
  return stack;
}

Result<ReplayReport> ServingStack::Replay() {
  auto report = ReplayCorpus(corpus_, labels_, *plane_, replay_options_);
  if (!report.ok()) return report.status();
  const size_t submitted =
      report->segments_closed - report->segments_outside_label_set;
  const size_t accounted = report->segments_evaluated + report->shed +
                           report->deadline_exceeded;
  if (accounted != submitted) {
    return Status::Internal(
        StrPrintf("request accounting leak (%zu submitted, %zu accounted)",
                  submitted, accounted));
  }
  return report;
}

std::string ServingStack::StatusPage() const {
  StatusPageOptions page;
  if (telemetry_) {
    page.timeseries = &telemetry_->timeseries();
    page.slo = telemetry_->slo();
  }
  return RenderStatusPage(obs::MetricsRegistry::Global(),
                          obs::RequestTracer::Global(), page);
}

void ServingStack::WaitForQuit() {
  if (lingers()) quit_requested_.wait(false);
}

}  // namespace trajkit::serve
