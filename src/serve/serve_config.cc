#include "serve/serve_config.h"

#include <utility>

#include "common/strings.h"

namespace trajkit::serve {
namespace {

/// One bounds check -> InvalidArgument naming the flag.
Status RequireAtLeast(long long value, long long floor, const char* flag) {
  if (value < floor) {
    return Status::InvalidArgument(StrPrintf(
        "--%s must be >= %lld (got %lld)", flag, floor, value));
  }
  return Status::Ok();
}

Status RequireNonNegative(double value, const char* flag) {
  if (value < 0.0) {
    return Status::InvalidArgument(
        StrPrintf("--%s must be >= 0 (got %g)", flag, value));
  }
  return Status::Ok();
}

}  // namespace

ServeConfigDefaults ServeReplayDefaults() {
  // Historic serve-replay defaults: unbounded queue, single shard, no
  // deadline/retries/chaos; synthetic fallback corpus is 20 users x 4
  // days.
  ServeConfigDefaults defaults;
  return defaults;
}

ServeConfigDefaults StatuszDefaults() {
  // Historic statusz demo defaults: a small chaotic sharded run whose
  // artifacts exercise every section of the page, with a p99 latency
  // ceiling and a shed-rate ceiling so the slo and timeseries sections
  // render live sparklines.
  ServeConfigDefaults defaults;
  defaults.users = 6;
  defaults.days = 2;
  defaults.batch = 16;
  defaults.max_queue = 32;
  defaults.shards = 2;
  defaults.deadline_ms = 50.0;
  defaults.retries = 1;
  defaults.fault_spec =
      "swap_stall:p=0.15,latency_ms=2;predict_fail:p=0.15;"
      "batch_delay:p=0.2,latency_ms=1;seed=11";
  defaults.slo_spec =
      "latency_p99:type=latency,"
      "metric=serve.batch_predictor.latency_seconds,ceiling_ms=50,"
      "budget=0.05,fast=4,slow=16;"
      "shed:type=ratio,bad=serve.shed_total.queue_full+"
      "serve.shed_total.preempted,total=serve.batch_predictor.requests,"
      "budget=0.02,fast=4,slow=16";
  return defaults;
}

ServeConfigDefaults MicroServeDefaults() {
  // Historic micro_serve defaults: 30 users x 4 days, a 50-tree forest,
  // no chaos.
  ServeConfigDefaults defaults;
  defaults.users = 30;
  defaults.days = 4;
  defaults.trees = 50;
  return defaults;
}

ContinuousTrainingOptions ContinuousTrainingConfig::MakeOptions() const {
  ContinuousTrainingOptions options;
  options.step_every = step_every;
  options.refit_every = refit_every;
  options.min_fit_samples = min_fit;
  options.buffer_capacity = buffer;
  options.forest.n_estimators = trees;
  options.forest.seed = seed;
  options.promotion.min_samples = min_shadow;
  options.promotion.min_accuracy_delta = promote_epsilon;
  options.promotion.max_cost_ratio = cost_budget;
  options.drift.window = drift_window;
  options.drift.threshold = drift_threshold;
  options.drift.max_degraded_rate = drift_degraded_rate;
  return options;
}

BatchPredictorOptions ServeConfig::MakeBatchingOptions() const {
  BatchPredictorOptions batching;
  batching.max_batch_size = batch;
  batching.max_queue = max_queue;
  return batching;
}

ServingPlaneOptions ServeConfig::MakePlaneOptions() const {
  ServingPlaneOptions plane;
  plane.shards = shards;
  plane.session.max_gap_seconds = gap_seconds;
  plane.session.max_segment_points = max_window;
  plane.batching = MakeBatchingOptions();
  return plane;
}

ReplayOptions ServeConfig::MakeReplayOptions() const {
  ReplayOptions replay;
  replay.deadline_seconds = deadline_seconds;
  replay.retry_budget = retries;
  return replay;
}

Result<ServeConfig> ParseServeFlags(const Flags& flags,
                                    const ServeConfigDefaults& defaults) {
  ServeConfig config;

  config.users = flags.GetInt("users", defaults.users);
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(config.users, 1, "users"));
  config.days = flags.GetInt("days", defaults.days);
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(config.days, 1, "days"));
  config.seed = flags.GetUint64("seed", defaults.seed);
  config.trees = flags.GetInt("trees", defaults.trees);
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(config.trees, 1, "trees"));

  const int batch =
      flags.GetInt("batch", static_cast<int>(defaults.batch));
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(batch, 1, "batch"));
  config.batch = static_cast<size_t>(batch);

  // Dispatch is work-conserving (BatchPredictor), so there is no batch
  // timer to set: a leftover flag fails loudly instead of doing nothing.
  if (flags.Has("max_delay_ms")) {
    return Status::InvalidArgument(
        "--max_delay_ms was removed: batches dispatch as soon as the "
        "predictor is free");
  }

  const int max_queue =
      flags.GetInt("max_queue", static_cast<int>(defaults.max_queue));
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(max_queue, 0, "max_queue"));
  config.max_queue = static_cast<size_t>(max_queue);

  const int shards =
      flags.GetInt("shards", static_cast<int>(defaults.shards));
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(shards, 1, "shards"));
  config.shards = static_cast<size_t>(shards);

  config.gap_seconds = flags.GetDouble("gap", defaults.gap_seconds);
  TRAJKIT_RETURN_IF_ERROR(RequireNonNegative(config.gap_seconds, "gap"));

  const int max_window =
      flags.GetInt("max_window", static_cast<int>(defaults.max_window));
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(max_window, 0, "max_window"));
  config.max_window = static_cast<size_t>(max_window);

  const double deadline_ms =
      flags.GetDouble("deadline_ms", defaults.deadline_ms);
  TRAJKIT_RETURN_IF_ERROR(RequireNonNegative(deadline_ms, "deadline_ms"));
  config.deadline_seconds = deadline_ms * 1e-3;

  config.retries = flags.GetInt("retries", defaults.retries);
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(config.retries, 0, "retries"));

  // An explicit --fault_spec (even an empty one, which disables the
  // entry point's default chaos) beats the defaults.
  config.fault_spec_text = flags.Has("fault_spec")
                               ? flags.GetString("fault_spec", "")
                               : defaults.fault_spec;
  if (!config.fault_spec_text.empty()) {
    auto spec = FaultSpec::Parse(config.fault_spec_text);
    if (!spec.ok()) {
      return Status::InvalidArgument(
          StrPrintf("--fault_spec: %s", spec.status().message().c_str()));
    }
    config.fault_spec = spec.value();
  }

  // Telemetry plane.
  config.http_port = flags.GetInt("http_port", -1);
  if (config.http_port < -1 || config.http_port > 65535) {
    return Status::InvalidArgument(StrPrintf(
        "--http_port must be in [0, 65535] (got %d)", config.http_port));
  }
  config.http_linger = flags.GetBool("http_linger", false);
  if (config.http_linger && config.http_port < 0) {
    return Status::InvalidArgument(
        "--http_linger requires --http_port");
  }
  config.slo_spec_text = flags.Has("slo_spec")
                             ? flags.GetString("slo_spec", "")
                             : defaults.slo_spec;
  if (!config.slo_spec_text.empty()) {
    std::string error;
    if (!obs::ParseSloSpecs(config.slo_spec_text, &config.slo_specs,
                            &error)) {
      return Status::InvalidArgument(
          StrPrintf("--slo_spec: %s", error.c_str()));
    }
  }
  const int timeseries_capacity = flags.GetInt(
      "timeseries_capacity", static_cast<int>(config.timeseries_capacity));
  TRAJKIT_RETURN_IF_ERROR(
      RequireAtLeast(timeseries_capacity, 2, "timeseries_capacity"));
  config.timeseries_capacity = static_cast<size_t>(timeseries_capacity);
  const int tick_every =
      flags.GetInt("tick_every", static_cast<int>(config.tick_every));
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(tick_every, 1, "tick_every"));
  config.tick_every = static_cast<size_t>(tick_every);

  // Continuous training: every knob requires the main switch, so a typo'd
  // or stray CT flag fails loudly instead of silently doing nothing.
  config.ct.enabled = flags.GetBool("continuous_training", false);
  static constexpr const char* kCtOnlyFlags[] = {
      "step_every",    "refit_every",     "min_fit",
      "min_shadow",    "promote_epsilon", "cost_budget",
      "ct_trees",      "ct_seed",         "ct_buffer",
      "drift_window",  "drift_threshold", "drift_degraded_rate",
  };
  if (!config.ct.enabled) {
    for (const char* name : kCtOnlyFlags) {
      if (flags.Has(name)) {
        return Status::InvalidArgument(
            StrPrintf("--%s requires --continuous_training", name));
      }
    }
    TRAJKIT_RETURN_IF_ERROR(flags.status());
    return config;
  }

  ContinuousTrainingConfig& ct = config.ct;
  const int step_every =
      flags.GetInt("step_every", static_cast<int>(ct.step_every));
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(step_every, 1, "step_every"));
  ct.step_every = static_cast<size_t>(step_every);

  const int refit_every =
      flags.GetInt("refit_every", static_cast<int>(ct.refit_every));
  TRAJKIT_RETURN_IF_ERROR(
      RequireAtLeast(refit_every, step_every, "refit_every"));
  ct.refit_every = static_cast<size_t>(refit_every);

  const int min_fit = flags.GetInt("min_fit", static_cast<int>(ct.min_fit));
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(min_fit, 1, "min_fit"));
  ct.min_fit = static_cast<size_t>(min_fit);

  const int min_shadow =
      flags.GetInt("min_shadow", static_cast<int>(ct.min_shadow));
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(min_shadow, 1, "min_shadow"));
  ct.min_shadow = static_cast<size_t>(min_shadow);

  ct.promote_epsilon =
      flags.GetDouble("promote_epsilon", ct.promote_epsilon);
  ct.cost_budget = flags.GetDouble("cost_budget", ct.cost_budget);
  if (ct.cost_budget <= 0.0) {
    return Status::InvalidArgument(StrPrintf(
        "--cost_budget must be > 0 (got %g)", ct.cost_budget));
  }

  ct.trees = flags.GetInt("ct_trees", ct.trees);
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(ct.trees, 1, "ct_trees"));
  ct.seed = flags.GetUint64("ct_seed", ct.seed);

  const int buffer = flags.GetInt("ct_buffer", static_cast<int>(ct.buffer));
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(buffer, min_fit, "ct_buffer"));
  ct.buffer = static_cast<size_t>(buffer);

  const int drift_window =
      flags.GetInt("drift_window", static_cast<int>(ct.drift_window));
  TRAJKIT_RETURN_IF_ERROR(RequireAtLeast(drift_window, 1, "drift_window"));
  ct.drift_window = static_cast<size_t>(drift_window);

  ct.drift_threshold =
      flags.GetDouble("drift_threshold", ct.drift_threshold);
  if (ct.drift_threshold <= 0.0) {
    return Status::InvalidArgument(StrPrintf(
        "--drift_threshold must be > 0 (got %g)", ct.drift_threshold));
  }

  ct.drift_degraded_rate =
      flags.GetDouble("drift_degraded_rate", ct.drift_degraded_rate);
  if (ct.drift_degraded_rate < 0.0 || ct.drift_degraded_rate > 1.0) {
    return Status::InvalidArgument(
        StrPrintf("--drift_degraded_rate must be in [0, 1] (got %g)",
                  ct.drift_degraded_rate));
  }

  TRAJKIT_RETURN_IF_ERROR(flags.status());
  return config;
}

}  // namespace trajkit::serve
