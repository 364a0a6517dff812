// Tests of the serving stack (src/serve/serving_stack.h): parity of
// ServingStack::Build + Replay with the hand-wired assembly it replaced
// (at 1 and 8 shards, with chaos, continuous training and an SLO on),
// the label prior, teardown right after Build and right after Replay
// (ASan-clean in CI), the HTTP /statusz page, the --http_linger wait, and
// the statusz SLO defaults. The thread-running cases carry the
// `concurrency` ctest label, so CI reruns them under TSan.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/harness_options.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "http_fetch.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "serve/continuous_training.h"
#include "serve/fault_injector.h"
#include "serve/model_registry.h"
#include "serve/replay.h"
#include "serve/serve_config.h"
#include "serve/serving_plane.h"
#include "serve/serving_stack.h"
#include "store/trajectory_store.h"
#include "synthgeo/generator.h"
#include "traj/trajectory_features.h"

namespace trajkit::serve {
namespace {

// The corpus of the CI serve-replay legs (6 users x 2 days, seed 42) and
// a 15-tree forest trained on it. Built once per binary.
struct StackFixture {
  std::vector<traj::Trajectory> corpus;
  core::LabelSet labels = core::LabelSet::Dabiri();
  ServingModel model;

  static const StackFixture& Get() {
    static const StackFixture* fixture = new StackFixture();
    return *fixture;
  }

 private:
  StackFixture() {
    synthgeo::GeneratorOptions generator_options;
    generator_options.num_users = 6;
    generator_options.days_per_user = 2;
    generator_options.seed = 42;
    corpus = synthgeo::GeoLifeLikeGenerator(generator_options).Generate();
    const core::Pipeline pipeline;
    const ml::Dataset dataset =
        std::move(pipeline.BuildDataset(corpus, labels)).value();
    ml::RandomForestParams params;
    params.n_estimators = 15;
    ml::RandomForest forest(params);
    TRAJKIT_CHECK(forest.Fit(dataset).ok());
    model = std::move(MakeServingModel("stack-v1", std::move(forest),
                                       traj::kNumTrajectoryFeatures))
                .value();
  }
};

Result<ServeConfig> ParseConfig(std::vector<std::string> tokens,
                                const ServeConfigDefaults& defaults) {
  std::vector<char*> argv = {const_cast<char*>("test")};
  for (std::string& token : tokens) argv.push_back(token.data());
  const Flags flags(static_cast<int>(argv.size()), argv.data());
  return ParseServeFlags(flags, defaults);
}

// Every batch's forest pass fails and no request has retry budget, so
// each one resolves through the label prior: chaos whose answers do not
// depend on how requests happen to batch.
constexpr char kDeterministicChaos[] = "predict_fail:p=1;seed=3";
constexpr char kDegradedSlo[] =
    "degraded:type=ratio,bad=serve.degraded_total.majority_class,"
    "total=serve.batch_predictor.requests,budget=0.02,fast=4,slow=16";

ServeConfig ParityConfig(size_t shards, const std::string& fault_spec) {
  return ParseConfig({"--shards=" + std::to_string(shards),
                      "--fault_spec=" + fault_spec, "--continuous_training",
                      "--step_every=8", "--refit_every=16", "--min_fit=16",
                      "--min_shadow=8", "--promote_epsilon=-1",
                      "--ct_trees=10", "--ct_buffer=256", "--tick_every=4",
                      std::string("--slo_spec=") + kDegradedSlo},
                     ServeReplayDefaults())
      .value();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// What a replay leaves behind, made comparable across two runs in one
// process: global counters only grow, so every counter series is rebased
// to its value when the run started.
struct RunOutput {
  ReplayReport report;
  std::string series;
  std::vector<std::string> slo_log;
  std::string store_log;
  size_t training_steps = 0;
  size_t promotions = 0;
};

std::map<std::string, double> CounterBaseline(const ServeConfig& config) {
  std::vector<std::string> names(
      ServingTelemetry::kDeterministicCounters.begin(),
      ServingTelemetry::kDeterministicCounters.end());
  for (const obs::SloSpec& spec : config.slo_specs) {
    names.insert(names.end(), spec.bad.begin(), spec.bad.end());
    names.insert(names.end(), spec.total.begin(), spec.total.end());
  }
  std::map<std::string, double> baseline;
  for (const std::string& name : names) {
    const obs::Counter* counter =
        obs::MetricsRegistry::Global().FindCounter(name);
    baseline[name] =
        counter != nullptr ? static_cast<double>(counter->value()) : 0.0;
  }
  return baseline;
}

std::string RebasedSeries(const obs::TimeSeriesStore& timeseries,
                          const std::map<std::string, double>& baseline) {
  std::ostringstream out;
  out << "ticks=" << timeseries.tick_count()
      << " capacity=" << timeseries.capacity() << "\n";
  for (const auto& [name, kind] : timeseries.SeriesKinds()) {
    out << name << " " << kind << ":";
    const auto it = baseline.find(name);
    EXPECT_TRUE(it != baseline.end()) << "unexpected series " << name;
    for (const double sample : timeseries.RecentSamples(name)) {
      out << " " << sample - (it != baseline.end() ? it->second : 0.0);
    }
    out << "\n";
  }
  return out.str();
}

void FillOutput(const ReplayReport& report,
                const obs::TimeSeriesStore& timeseries,
                const obs::SloEngine& slo,
                const store::TrajectoryStore& trajectory_store,
                const std::map<std::string, double>& baseline,
                const std::string& store_path, RunOutput* out) {
  out->report = report;
  out->series = RebasedSeries(timeseries, baseline);
  out->slo_log = slo.transition_log();
  TRAJKIT_CHECK(trajectory_store.SaveTo(store_path).ok());
  out->store_log = ReadFile(store_path);
}

// The assembly serve-replay did by hand before ServingStack existed,
// kept as the oracle.
RunOutput RunHandWired(const ServeConfig& config) {
  const StackFixture& fixture = StackFixture::Get();
  const std::map<std::string, double> baseline = CounterBaseline(config);
  ModelRegistry registry;
  TRAJKIT_CHECK(registry.Publish(fixture.model).ok());
  ServingPlaneOptions plane_options = config.MakePlaneOptions();
  std::optional<FaultInjector> injector;
  if (config.fault_spec.has_value()) {
    injector.emplace(config.fault_spec.value());
    plane_options.batching.fault_injector = &*injector;
    std::vector<double> prior(
        static_cast<size_t>(fixture.labels.num_classes()), 0.0);
    for (const traj::Trajectory& trajectory : fixture.corpus) {
      for (const traj::TrajectoryPoint& point : trajectory.points) {
        const int cls = fixture.labels.ClassOf(point.mode);
        if (cls >= 0) prior[static_cast<size_t>(cls)] += 1.0;
      }
    }
    plane_options.batching.label_prior = std::move(prior);
  }
  std::optional<ContinuousTrainer> trainer;
  ReplayOptions replay_options = config.MakeReplayOptions();
  if (config.ct.enabled) {
    trainer.emplace(&registry, fixture.labels, config.ct.MakeOptions());
    plane_options.batching.shadow_evaluator = &trainer->evaluator();
    replay_options.trainer = &*trainer;
  }
  ServingPlane plane(&registry, plane_options);
  store::TrajectoryStore trajectory_store;
  replay_options.closed_sink = [&](const ClosedSegment& segment,
                                   int predicted_class) {
    const traj::Mode predicted = predicted_class >= 0
                                     ? fixture.labels.ModeOf(predicted_class)
                                     : segment.mode;
    trajectory_store.Ingest(store::FromClosedSegment(segment, predicted));
  };
  obs::TimeSeriesOptions ts_options;
  ts_options.capacity = config.timeseries_capacity;
  obs::TimeSeriesStore timeseries(obs::MetricsRegistry::Global(), ts_options);
  for (const char* name : ServingTelemetry::kDeterministicCounters) {
    timeseries.TrackCounter(name);
  }
  obs::SloEngine slo(&timeseries, &obs::MetricsRegistry::Global(),
                     config.slo_specs);
  size_t tick_index = 0;
  replay_options.tick_every_segments = config.tick_every;
  replay_options.tick = [&] {
    timeseries.Tick(static_cast<double>(tick_index));
    slo.Evaluate(tick_index);
    ++tick_index;
  };
  auto report =
      ReplayCorpus(fixture.corpus, fixture.labels, plane, replay_options);
  TRAJKIT_CHECK(report.ok()) << report.status().ToString();
  RunOutput out;
  FillOutput(report.value(), timeseries, slo, trajectory_store, baseline,
             (std::filesystem::temp_directory_path() / "stack_oracle.log")
                 .string(),
             &out);
  if (trainer.has_value()) {
    out.training_steps = trainer->stats().steps;
    out.promotions = trainer->stats().promotions;
  }
  return out;
}

std::unique_ptr<ServingStack> BuildStack(const ServeConfig& config,
                                         bool keep_store = true) {
  const StackFixture& fixture = StackFixture::Get();
  auto stack = ServingStack::Build(config, HarnessOptions{}, fixture.corpus,
                                   fixture.labels, fixture.model, keep_store);
  TRAJKIT_CHECK(stack.ok()) << stack.status().ToString();
  return std::move(stack).value();
}

RunOutput RunStack(const ServeConfig& config) {
  const std::map<std::string, double> baseline = CounterBaseline(config);
  std::unique_ptr<ServingStack> stack = BuildStack(config);
  auto report = stack->Replay();
  TRAJKIT_CHECK(report.ok()) << report.status().ToString();
  TRAJKIT_CHECK(stack->telemetry() != nullptr &&
                stack->telemetry()->slo() != nullptr);
  RunOutput out;
  FillOutput(report.value(), stack->telemetry()->timeseries(),
             *stack->telemetry()->slo(), *stack->store(), baseline,
             (std::filesystem::temp_directory_path() / "stack_built.log")
                 .string(),
             &out);
  if (stack->trainer() != nullptr) {
    out.training_steps = stack->trainer()->stats().steps;
    out.promotions = stack->trainer()->stats().promotions;
  }
  return out;
}

void ExpectSameRun(const RunOutput& built, const RunOutput& oracle) {
  const ReplayReport& a = built.report;
  const ReplayReport& b = oracle.report;
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.segments_closed, b.segments_closed);
  EXPECT_EQ(a.segments_evaluated, b.segments_evaluated);
  EXPECT_EQ(a.segments_outside_label_set, b.segments_outside_label_set);
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.deadline_exceeded, b.deadline_exceeded);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.degraded_previous_model, b.degraded_previous_model);
  EXPECT_EQ(a.degraded_majority_class, b.degraded_majority_class);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.y_true, b.y_true);
  EXPECT_EQ(a.y_pred, b.y_pred);
  EXPECT_EQ(built.series, oracle.series);
  EXPECT_EQ(built.slo_log, oracle.slo_log);
  EXPECT_EQ(built.store_log, oracle.store_log);
  EXPECT_EQ(built.training_steps, oracle.training_steps);
  EXPECT_EQ(built.promotions, oracle.promotions);
}

// ---------------------------------------------------------------- parity --

TEST(ServingStackTest, MatchesHandWiredStackUnderChaosTrainingAndSlo) {
  for (const size_t shards : {1, 8}) {
    SCOPED_TRACE(shards);
    const ServeConfig config = ParityConfig(shards, kDeterministicChaos);
    const RunOutput oracle = RunHandWired(config);
    const RunOutput built = RunStack(config);
    ExpectSameRun(built, oracle);
    // The configuration must exercise what it claims to: every answer
    // comes from the label prior, the SLO breaches, the trainer steps.
    EXPECT_GT(built.report.segments_evaluated, 0u);
    EXPECT_EQ(built.report.degraded_majority_class,
              built.report.segments_evaluated);
    EXPECT_FALSE(built.slo_log.empty());
    EXPECT_GT(built.training_steps, 0u);
    EXPECT_FALSE(built.store_log.empty());
  }
}

TEST(ServingStackTest, MatchesHandWiredStackWithPromotions) {
  const ServeConfig config = ParityConfig(8, /*fault_spec=*/"");
  const RunOutput oracle = RunHandWired(config);
  const RunOutput built = RunStack(config);
  ExpectSameRun(built, oracle);
  EXPECT_EQ(built.report.degraded, 0u);
  EXPECT_GT(built.promotions, 0u);
}

// ----------------------------------------------------------- label prior --

TEST(ServingStackTest, LabelPriorCountsCorpusPointsPerClass) {
  const StackFixture& fixture = StackFixture::Get();
  std::vector<double> expected(
      static_cast<size_t>(fixture.labels.num_classes()), 0.0);
  for (const traj::Trajectory& trajectory : fixture.corpus) {
    for (const traj::TrajectoryPoint& point : trajectory.points) {
      const int cls = fixture.labels.ClassOf(point.mode);
      if (cls >= 0) expected[static_cast<size_t>(cls)] += 1.0;
    }
  }
  EXPECT_EQ(BuildStack(ParityConfig(1, kDeterministicChaos))->label_prior(),
            expected);
  // Without chaos there is no degradation rung to feed.
  EXPECT_TRUE(BuildStack(ParityConfig(1, ""))->label_prior().empty());
}

// ------------------------------------------------------------- lifetimes --

ServeConfig EverythingOnConfig() {
  ServeConfig config = ParityConfig(2, "predict_fail:p=0.3;seed=5");
  config.retries = 1;
  config.http_port = 0;
  return config;
}

TEST(ServingStackTest, DestroysCleanlyRightAfterBuild) {
  std::unique_ptr<ServingStack> stack = BuildStack(EverythingOnConfig());
  EXPECT_GT(stack->http_port(), 0);
  stack.reset();
}

TEST(ServingStackTest, DestroysCleanlyRightAfterReplay) {
  std::unique_ptr<ServingStack> stack = BuildStack(EverythingOnConfig());
  ASSERT_TRUE(stack->Replay().ok());
  stack.reset();
}

TEST(ServingStackTest, KeepsNoStoreUnlessAsked) {
  const ServeConfig config = ParseConfig({}, ServeReplayDefaults()).value();
  std::unique_ptr<ServingStack> stack =
      BuildStack(config, /*keep_store=*/false);
  EXPECT_EQ(stack->store(), nullptr);
  EXPECT_EQ(stack->telemetry(), nullptr);
  EXPECT_EQ(stack->trainer(), nullptr);
  EXPECT_EQ(stack->http_port(), -1);
  EXPECT_FALSE(stack->lingers());
  stack->WaitForQuit();  // Returns at once without a lingering server.
}

// ------------------------------------------------------------------ HTTP --

TEST(ServingStackTest, HttpStatuszServesTheStackStatusPage) {
  ServeConfig config = ParityConfig(2, kDeterministicChaos);
  config.http_port = 0;
  std::unique_ptr<ServingStack> stack = BuildStack(config);
  ASSERT_GT(stack->http_port(), 0);
  ASSERT_TRUE(stack->Replay().ok());
  const test::HttpReply statusz = test::Fetch(stack->http_port(), "/statusz");
  EXPECT_EQ(statusz.status, 200);
  EXPECT_EQ(statusz.body, stack->StatusPage());
  EXPECT_NE(statusz.body.find("\nslo\n"), std::string::npos);
  EXPECT_NE(statusz.body.find("\ntimeseries\n"), std::string::npos);
  // The timeseries section lists the stack's tracked series.
  EXPECT_NE(statusz.body.find("serve.sessions.points_ingested"),
            std::string::npos);
  const test::HttpReply series =
      test::Fetch(stack->http_port(), "/timeseries.json");
  EXPECT_EQ(series.status, 200);
  EXPECT_EQ(series.body, stack->telemetry()->timeseries().ToJson());
  // No linger without --http_linger: /quitquitquit is not wired.
  EXPECT_FALSE(stack->lingers());
  EXPECT_EQ(test::Fetch(stack->http_port(), "/quitquitquit").status, 404);
}

TEST(ServingStackTest, LingerWaitsForQuitquitquit) {
  ServeConfig config = ParseConfig({"--http_port=0", "--http_linger"},
                                   ServeReplayDefaults())
                           .value();
  std::unique_ptr<ServingStack> stack = BuildStack(config);
  ASSERT_TRUE(stack->lingers());
  std::thread waiter([&stack] { stack->WaitForQuit(); });
  EXPECT_EQ(test::Fetch(stack->http_port(), "/quitquitquit").status, 200);
  waiter.join();
}

// ----------------------------------------------------------------- flags --

TEST(ServingStackTest, StatuszDefaultsArmDemoSlosAndEmptySpecClearsThem) {
  const ServeConfig demo = ParseConfig({}, StatuszDefaults()).value();
  ASSERT_EQ(demo.slo_specs.size(), 2u);
  EXPECT_EQ(demo.slo_specs[0].name, "latency_p99");
  EXPECT_EQ(demo.slo_specs[1].name, "shed");
  EXPECT_TRUE(demo.telemetry_enabled());

  const ServeConfig cleared =
      ParseConfig({"--slo_spec="}, StatuszDefaults()).value();
  EXPECT_TRUE(cleared.slo_specs.empty());
  EXPECT_FALSE(cleared.telemetry_enabled());

  const ServeConfig replay = ParseConfig({}, ServeReplayDefaults()).value();
  EXPECT_TRUE(replay.slo_specs.empty());
}

}  // namespace
}  // namespace trajkit::serve
