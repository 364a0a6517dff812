#ifndef TRAJKIT_SERVE_SERVING_STACK_H_
#define TRAJKIT_SERVE_SERVING_STACK_H_

// The one place that assembles the online serving stack: `serve-replay`
// and `statusz` build a ServingStack from their ServeConfig instead of
// wiring its parts by hand. It links the trajectory store, which itself
// links the serve layer, so it is its own target (trajkit_serve_stack).

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/harness_options.h"
#include "obs/http_export.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "serve/continuous_training.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/replay.h"
#include "serve/serve_config.h"
#include "serve/serving_plane.h"
#include "store/trajectory_store.h"

namespace trajkit::serve {

/// The live telemetry plane over the global metrics registry: a time
/// series of the counters whose values are a pure function of the corpus
/// (byte-identical at any thread/shard count; SLO specs track what they
/// reference on top), an optional SLO engine, and the tick.
class ServingTelemetry {
 public:
  static constexpr std::array<const char*, 8> kDeterministicCounters = {
      "serve.sessions.points_ingested", "serve.sessions.segments_emitted",
      "serve.batch_predictor.requests", "serve.shed_total.queue_full",
      "serve.shed_total.preempted", "serve.deadline_exceeded_total",
      "serve.degraded_total.previous_model",
      "serve.degraded_total.majority_class"};

  /// No SLO engine when `slo_specs` is empty.
  ServingTelemetry(size_t capacity, std::vector<obs::SloSpec> slo_specs);

  /// Samples every series and evaluates the SLOs at tick 0, 1, 2, ...
  void Tick();

  const obs::TimeSeriesStore& timeseries() const { return timeseries_; }
  const obs::SloEngine* slo() const { return slo_ ? &*slo_ : nullptr; }
  size_t ticks() const { return ticks_; }

 private:
  obs::TimeSeriesStore timeseries_;
  std::optional<obs::SloEngine> slo_;
  size_t ticks_ = 0;
};

/// Owns every serving component of one replay. Members are declared in
/// dependency order, so teardown runs backwards: the HTTP server stops
/// before the telemetry and registry it exports, and the plane joins its
/// predictor workers before the trainer, injector and registry they use.
class ServingStack {
 public:
  /// Publishes `model` and builds what `config` asks for: with a fault
  /// spec, the injector and a label prior of per-class point counts over
  /// `corpus`; with --continuous_training, the trainer; the plane; with
  /// `keep_store`, a TrajectoryStore fed every closed segment under its
  /// predicted mode (else its annotated one) at each replay barrier; when telemetry is enabled or
  /// --timeseries_json is set, a ServingTelemetry ticked every
  /// config.tick_every closed segments; with http_port >= 0, a started
  /// HTTP server. `corpus` must outlive the stack. Configure tracing
  /// first, so the publish's registry_swap landmark is recorded.
  static Result<std::unique_ptr<ServingStack>> Build(
      const ServeConfig& config, const HarnessOptions& harness,
      const std::vector<traj::Trajectory>& corpus,
      const core::LabelSet& labels, ServingModel model, bool keep_store);

  /// ReplayCorpus with the stack's options; Internal unless every
  /// submitted request resolved once (evaluated, shed or expired).
  Result<ReplayReport> Replay();

  /// The status page, as the HTTP /statusz handler serves it.
  std::string StatusPage() const;

  /// With --http_linger, blocks until GET /quitquitquit.
  bool lingers() const { return http_.has_value() && config_.http_linger; }
  void WaitForQuit();

  ModelRegistry& registry() { return registry_; }
  ServingPlane& plane() { return *plane_; }
  // nullptr when the component is off.
  const ContinuousTrainer* trainer() const {
    return trainer_ ? &*trainer_ : nullptr;
  }
  store::TrajectoryStore* store() { return store_ ? &*store_ : nullptr; }
  const ServingTelemetry* telemetry() const {
    return telemetry_ ? &*telemetry_ : nullptr;
  }
  /// Empty without a fault spec.
  const std::vector<double>& label_prior() const { return label_prior_; }
  /// -1 without a server.
  int http_port() const { return http_ ? http_->port() : -1; }

 private:
  ServingStack(const ServeConfig& config,
               const std::vector<traj::Trajectory>& corpus,
               const core::LabelSet& labels)
      : config_(config), corpus_(corpus), labels_(labels) {}

  const ServeConfig config_;
  const std::vector<traj::Trajectory>& corpus_;
  const core::LabelSet labels_;
  ModelRegistry registry_;
  std::optional<FaultInjector> injector_;
  std::vector<double> label_prior_;
  std::optional<ContinuousTrainer> trainer_;
  std::optional<ServingPlane> plane_;
  std::optional<store::TrajectoryStore> store_;
  std::optional<ServingTelemetry> telemetry_;
  ReplayOptions replay_options_;
  std::atomic<bool> quit_requested_{false};
  std::optional<obs::HttpExportServer> http_;
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_SERVING_STACK_H_
