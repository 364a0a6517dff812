// Tests for the continuous-training loop and the redesigned registry API
// (src/serve/model_registry.h, continuous_training.h, shadow_evaluator.h,
// serve_config.h): the publish/promote/retire lifecycle with its audit
// trail, lease coherence under concurrent promotions, shadow promotion
// under concurrent sharded predict (both rerun under TSan by CI),
// failed-candidate rejection, a refit failed by a NaN example,
// drift-forced refits, byte-identical CT
// replay across thread/shard counts, and ParseServeFlags validation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "ml/dataset.h"
#include "ml/flat_forest.h"
#include "ml/matrix.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "serve/batch_predictor.h"
#include "serve/continuous_training.h"
#include "serve/model_registry.h"
#include "serve/replay.h"
#include "serve/serve_config.h"
#include "serve/serving_plane.h"
#include "serve/session_manager.h"
#include "serve/shadow_evaluator.h"
#include "synthgeo/generator.h"
#include "traj/trajectory_features.h"
#include "traj/types.h"

namespace trajkit::serve {
namespace {

// Same recipe as the serve-replay CT smoke in CI (6 users x 2 days,
// seed 42): big enough that a refit_every=16 trainer installs and
// promotes a candidate mid-replay. Built once per binary.
struct CtFixture {
  std::vector<traj::Trajectory> corpus;
  core::LabelSet labels = core::LabelSet::Dabiri();
  ml::Dataset dataset;
  std::vector<int> offline_predictions;
  ServingModel model;

  static const CtFixture& Get() {
    static const CtFixture* fixture = new CtFixture();
    return *fixture;
  }

 private:
  CtFixture() {
    synthgeo::GeneratorOptions generator_options;
    generator_options.num_users = 6;
    generator_options.days_per_user = 2;
    generator_options.seed = 42;
    synthgeo::GeoLifeLikeGenerator generator(generator_options);
    corpus = generator.Generate();
    const core::Pipeline pipeline;
    dataset = std::move(pipeline.BuildDataset(corpus, labels)).value();
    ml::RandomForestParams params;
    params.n_estimators = 15;
    ml::RandomForest forest(params);
    TRAJKIT_CHECK(forest.Fit(dataset).ok());
    offline_predictions = forest.Predict(dataset.features());
    model = std::move(MakeServingModel("v1", std::move(forest),
                                       traj::kNumTrajectoryFeatures))
                .value();
  }
};

// A copy of the fixture model republished under another version — the
// forest is shared, so every candidate answers identically to v1.
ServingModel CloneAs(const std::string& version) {
  ServingModel clone = CtFixture::Get().model;
  clone.version = version;
  return clone;
}

// A forest over `width`-dim synthetic features — used to provoke the
// shadow input-width check and to exercise scratch reuse cheaply.
ServingModel TinyModel(const std::string& version, int width,
                       uint64_t seed = 5) {
  Rng rng(seed);
  const size_t n = 32;
  ml::Matrix features(n, static_cast<size_t>(width));
  std::vector<int> labels(n);
  std::vector<std::string> feature_names;
  for (int f = 0; f < width; ++f) {
    feature_names.push_back(StrPrintf("f%d", f));
  }
  for (size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(i % 2);
    for (int f = 0; f < width; ++f) {
      features.MutableRow(i)[static_cast<size_t>(f)] =
          rng.Uniform(0.0, 1.0) + static_cast<double>(labels[i]);
    }
  }
  ml::Dataset dataset =
      std::move(ml::Dataset::Create(std::move(features), std::move(labels),
                                    {}, std::move(feature_names),
                                    {"even", "odd"}))
          .value();
  ml::RandomForestParams params;
  params.n_estimators = 5;
  ml::RandomForest forest(params);
  TRAJKIT_CHECK(forest.Fit(dataset).ok());
  return std::move(MakeServingModel(version, std::move(forest), width))
      .value();
}

ClosedSegment SegmentWithFeatures(std::vector<double> features) {
  ClosedSegment segment;
  segment.features = std::move(features);
  return segment;
}

// Builds a Flags view over literal argv tokens ("--key=value").
class FlagSet {
 public:
  explicit FlagSet(std::vector<std::string> tokens)
      : tokens_(std::move(tokens)) {
    argv_.push_back(const_cast<char*>("test"));
    for (std::string& token : tokens_) {
      argv_.push_back(token.data());
    }
    flags_ = std::make_unique<Flags>(static_cast<int>(argv_.size()),
                                     argv_.data());
  }
  const Flags& operator*() const { return *flags_; }

 private:
  std::vector<std::string> tokens_;
  std::vector<char*> argv_;
  std::unique_ptr<Flags> flags_;
};

// ---------------------------------------------------- Registry lifecycle --

TEST(ModelRegistryTest, PublishPromoteRetireKeepsCoherentTriple) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(CloneAs("v1")).ok());

  ModelLease lease = registry.Acquire();
  ASSERT_NE(lease.active, nullptr);
  EXPECT_EQ(lease.active->version, "v1");
  EXPECT_EQ(lease.last_good, nullptr);
  EXPECT_EQ(lease.shadow, nullptr);
  const uint64_t seq_after_publish = lease.seq;

  // Installing a shadow changes what readers see in the shadow slot only.
  ASSERT_TRUE(registry.Publish(CloneAs("v2"), ModelRole::kShadow).ok());
  lease = registry.Acquire();
  EXPECT_EQ(lease.active->version, "v1");
  ASSERT_NE(lease.shadow, nullptr);
  EXPECT_EQ(lease.shadow->version, "v2");
  EXPECT_GT(lease.seq, seq_after_publish);

  // Promotion: shadow -> active, active -> last_good, shadow empties.
  ASSERT_TRUE(registry.PromoteShadow("accuracy_delta=+0.02").ok());
  lease = registry.Acquire();
  EXPECT_EQ(lease.active->version, "v2");
  ASSERT_NE(lease.last_good, nullptr);
  EXPECT_EQ(lease.last_good->version, "v1");
  EXPECT_EQ(lease.shadow, nullptr);

  // Retiring a rejected candidate also drops its registration.
  ASSERT_TRUE(registry.Publish(CloneAs("v3"), ModelRole::kShadow).ok());
  ASSERT_TRUE(registry.RetireShadow("accuracy_delta below epsilon").ok());
  lease = registry.Acquire();
  EXPECT_EQ(lease.active->version, "v2");
  EXPECT_EQ(lease.shadow, nullptr);
  EXPECT_EQ(registry.Get("v3"), nullptr);
  EXPECT_NE(registry.Get("v1"), nullptr);  // Still last_good.
}

TEST(ModelRegistryTest, AuditTrailRecordsLifecycleInOrder) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(CloneAs("v1")).ok());
  ASSERT_TRUE(registry.Publish(CloneAs("v2"), ModelRole::kShadow).ok());
  ASSERT_TRUE(registry.PromoteShadow("delta=+0.01 over 64 labeled").ok());
  ASSERT_TRUE(registry.Publish(CloneAs("v3"), ModelRole::kShadow).ok());
  ASSERT_TRUE(registry.RetireShadow("cost_ratio=5.1 > budget 4.0").ok());

  const std::vector<RegistryAuditEvent> trail = registry.AuditTrail();
  ASSERT_EQ(trail.size(), 5u);
  EXPECT_EQ(trail[0].event, "publish_active");
  EXPECT_EQ(trail[0].version, "v1");
  EXPECT_EQ(trail[1].event, "publish_shadow");
  EXPECT_EQ(trail[1].version, "v2");
  EXPECT_EQ(trail[2].event, "promote");
  EXPECT_EQ(trail[2].version, "v2");
  EXPECT_EQ(trail[2].detail, "delta=+0.01 over 64 labeled");
  EXPECT_EQ(trail[3].event, "publish_shadow");
  EXPECT_EQ(trail[4].event, "retire_shadow");
  EXPECT_EQ(trail[4].version, "v3");
  // Sequence numbers strictly increase down the trail.
  for (size_t i = 1; i < trail.size(); ++i) {
    EXPECT_GT(trail[i].seq, trail[i - 1].seq);
  }
}

TEST(ModelRegistryTest, ShadowPublishRejectsInputWidthMismatch) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(CloneAs("v1")).ok());
  const Status status =
      registry.Publish(TinyModel("narrow", 3), ModelRole::kShadow);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("consumes"), std::string::npos)
      << status.message();
  // The rejected candidate never became visible.
  EXPECT_EQ(registry.Acquire().shadow, nullptr);
}

TEST(ModelRegistryTest, PromoteOrRetireWithoutShadowFailsPrecondition) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(CloneAs("v1")).ok());
  EXPECT_FALSE(registry.PromoteShadow("no candidate").ok());
  EXPECT_FALSE(registry.RetireShadow("no candidate").ok());
  EXPECT_EQ(registry.Acquire().active->version, "v1");
}

// ------------------------------------------------------- Lease coherence --

// Readers must never observe a promotion half-applied: within one lease
// the (active, last_good, shadow) triple is consistent and seq only moves
// forward. CI reruns this under TSan.
TEST(CtConcurrencyTest, LeaseStaysCoherentUnderConcurrentPromotes) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(CloneAs("v1")).ok());

  constexpr int kPromotions = 100;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kPromotions; ++i) {
      ASSERT_TRUE(registry
                      .Publish(CloneAs("cand-" + std::to_string(i)),
                               ModelRole::kShadow)
                      .ok());
      ASSERT_TRUE(registry.PromoteShadow("race test").ok());
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int reader = 0; reader < 3; ++reader) {
    readers.emplace_back([&] {
      uint64_t last_seq = 0;
      while (!done.load()) {
        const ModelLease lease = registry.Acquire();
        ASSERT_NE(lease.active, nullptr);
        EXPECT_GE(lease.seq, last_seq);
        last_seq = lease.seq;
        if (lease.last_good != nullptr) {
          // Promotion swaps atomically: active and last-good can never
          // be the same snapshot.
          EXPECT_NE(lease.active->version, lease.last_good->version);
        }
        if (lease.shadow != nullptr) {
          EXPECT_EQ(lease.shadow->num_input_features,
                    lease.active->num_input_features);
        }
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  const ModelLease lease = registry.Acquire();
  EXPECT_EQ(lease.active->version, "cand-" + std::to_string(kPromotions - 1));
  EXPECT_EQ(lease.shadow, nullptr);
}

// Shadow install + promotion while readers submit across a sharded plane
// with shadow scoring wired in. Labels must stay correct throughout (all
// candidates wrap the same forest); TSan-clean is the main assertion.
TEST(CtConcurrencyTest, ShadowPromotionUnderConcurrentShardedPredict) {
  const CtFixture& fixture = CtFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(CloneAs("v1")).ok());

  ShadowEvaluator evaluator;
  evaluator.StartWindow("cand-0", 1.0);
  ServingPlaneOptions options;
  options.shards = 4;
  options.batching.max_batch_size = 1;  // Dispatch immediately.
  options.batching.shadow_evaluator = &evaluator;
  ServingPlane plane(&registry, options);

  constexpr int kReaders = 3;
  constexpr int kIterationsPerReader = 50;
  std::atomic<int> readers_done{0};
  std::thread writer([&] {
    int i = 0;
    while (readers_done.load() < kReaders) {
      const std::string version = "cand-" + std::to_string(i++);
      ASSERT_TRUE(registry.Publish(CloneAs(version), ModelRole::kShadow).ok());
      ASSERT_TRUE(registry.PromoteShadow("concurrency test").ok());
    }
  });

  const size_t num_rows = fixture.dataset.num_samples();
  std::vector<std::thread> readers;
  for (int reader = 0; reader < kReaders; ++reader) {
    readers.emplace_back([&, reader] {
      for (int i = 0; i < kIterationsPerReader; ++i) {
        const size_t r =
            (static_cast<size_t>(reader) * kIterationsPerReader +
             static_cast<size_t>(i)) %
            num_rows;
        const auto row = fixture.dataset.features().Row(r);
        auto future = plane.Submit(static_cast<int64_t>(i),
                                   PredictRequest({row.begin(), row.end()}));
        const auto result = future.get();
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.value().label, fixture.offline_predictions[r]);
        // Whoever served it, a shadow answer (when scored) must agree —
        // every version wraps the same forest.
        if (result.value().shadow_label >= 0) {
          EXPECT_EQ(result.value().shadow_label,
                    fixture.offline_predictions[r]);
        }
      }
      readers_done.fetch_add(1);
    });
  }
  for (std::thread& reader : readers) reader.join();
  writer.join();
}

// ------------------------------------------------- Trainer verdict paths --

// A candidate that cannot clear the promotion epsilon is retired at the
// verdict barrier: the active model keeps serving, the rejected version
// is unregistered, and the rejection is audited.
TEST(ContinuousTrainerTest, FailedCandidateRejectionKeepsActiveServing) {
  const CtFixture& fixture = CtFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(CloneAs("v1")).ok());

  ContinuousTrainingOptions options;
  options.step_every = 4;
  options.refit_every = 4;
  options.min_fit_samples = 4;
  options.forest.n_estimators = 5;
  options.promotion.min_samples = 4;
  options.promotion.min_accuracy_delta = 1.5;  // Unreachable: always reject.
  options.drift.enabled = false;
  ContinuousTrainer trainer(&registry, fixture.labels, options);

  const auto feed_segments = [&](size_t count, size_t offset) {
    for (size_t i = 0; i < count; ++i) {
      const auto row = fixture.dataset.features().Row(
          (offset + i) % fixture.dataset.num_samples());
      trainer.ObserveSegment(SegmentWithFeatures({row.begin(), row.end()}),
                             static_cast<int>(i % 2));
    }
  };

  // Barrier 1: refit launches. Barrier 2: candidate lands in the shadow
  // slot and its evaluation window opens.
  feed_segments(4, 0);
  ASSERT_TRUE(trainer.StepDue());
  ASSERT_TRUE(trainer.Step().ok());
  EXPECT_EQ(trainer.stats().refits_launched, 1u);
  feed_segments(4, 4);
  ASSERT_TRUE(trainer.Step().ok());
  ASSERT_EQ(trainer.stats().shadows_installed, 1u);
  const ModelLease shadowed = registry.Acquire();
  ASSERT_NE(shadowed.shadow, nullptr);
  const std::string candidate = shadowed.shadow->version;

  // Label outcomes where the shadow is always wrong, then hit the next
  // barrier: the window has matured and the verdict is a rejection.
  for (int i = 0; i < 4; ++i) {
    Prediction prediction;
    prediction.label = 0;  // Active correct.
    prediction.shadow_label = 1;
    prediction.shadow_version = candidate;
    trainer.OnResult(/*true_class=*/0, prediction);
  }
  feed_segments(4, 8);
  ASSERT_TRUE(trainer.Step().ok());

  EXPECT_EQ(trainer.stats().rejections, 1u);
  EXPECT_EQ(trainer.stats().promotions, 0u);
  const ModelLease lease = registry.Acquire();
  ASSERT_NE(lease.active, nullptr);
  EXPECT_EQ(lease.active->version, "v1");
  EXPECT_EQ(lease.shadow, nullptr);
  EXPECT_EQ(registry.Get(candidate), nullptr);
  const std::vector<RegistryAuditEvent> trail = registry.AuditTrail();
  ASSERT_FALSE(trail.empty());
  EXPECT_EQ(trail.back().event, "retire_shadow");
  EXPECT_EQ(trail.back().version, candidate);
}

// A sustained feature-distribution shift fires the drift sketch and
// forces a refit long before refit_every would.
TEST(ContinuousTrainerTest, DriftTriggerForcesEarlyRefit) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(CloneAs("v1")).ok());

  ContinuousTrainingOptions options;
  options.step_every = 4;
  options.refit_every = 1000;  // Never due by counting alone.
  options.min_fit_samples = 4;
  options.forest.n_estimators = 3;
  options.drift.enabled = true;
  options.drift.window = 4;
  options.drift.threshold = 1.0;
  ContinuousTrainer trainer(&registry, core::LabelSet::Dabiri(), options);

  const auto feed = [&](double value, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      trainer.ObserveSegment(
          SegmentWithFeatures(std::vector<double>(8, value)),
          static_cast<int>(i % 2));
    }
  };

  // Baseline window: no drift, no refit due.
  feed(1.0, 4);
  ASSERT_TRUE(trainer.Step().ok());
  EXPECT_EQ(trainer.stats().drift_triggers, 0u);
  EXPECT_EQ(trainer.stats().refits_launched, 0u);

  // Shifted window: the sketch trips and the same barrier kicks a refit.
  feed(101.0, 4);
  ASSERT_TRUE(trainer.Step().ok());
  EXPECT_EQ(trainer.stats().drift_triggers, 1u);
  EXPECT_EQ(trainer.stats().refits_launched, 1u);
}

// A segment with a NaN or inf feature never reaches the refit buffer
// (every forest fit rejects non-finite input): it is counted as dropped,
// and the refit over the finite examples lands as a shadow.
TEST(ContinuousTrainerTest, NonFiniteSegmentIsDroppedAndRefitsKeepLearning) {
  const CtFixture& fixture = CtFixture::Get();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish(CloneAs("v1")).ok());

  ContinuousTrainingOptions options;
  options.step_every = 4;
  options.refit_every = 4;
  options.min_fit_samples = 4;
  options.forest.n_estimators = 3;
  options.drift.enabled = false;
  ContinuousTrainer trainer(&registry, fixture.labels, options);
  obs::Counter& dropped =
      obs::MetricsRegistry::Global().GetCounter("serve.ct.nonfinite_dropped");
  obs::Counter& failures =
      obs::MetricsRegistry::Global().GetCounter("serve.ct.fit_failures");
  const uint64_t dropped_before = dropped.value();
  const uint64_t failures_before = failures.value();

  // Rows 0..7 of the fixture, with a NaN in row 2 and an inf in row 5.
  for (size_t i = 0; i < 8; ++i) {
    const auto row = fixture.dataset.features().Row(i);
    std::vector<double> features(row.begin(), row.end());
    if (i == 2) features[5] = std::numeric_limits<double>::quiet_NaN();
    if (i == 5) features[0] = -std::numeric_limits<double>::infinity();
    trainer.ObserveSegment(SegmentWithFeatures(std::move(features)),
                           static_cast<int>(i % 2));
    if (i == 4) {
      // Four finite examples buffered: the first refit launches.
      ASSERT_TRUE(trainer.StepDue());
      ASSERT_TRUE(trainer.Step().ok());
      ASSERT_EQ(trainer.stats().refits_launched, 1u);
    }
  }
  ASSERT_TRUE(trainer.Step().ok());

  EXPECT_EQ(trainer.stats().nonfinite_dropped, 2u);
  EXPECT_EQ(dropped.value(), dropped_before + 2);
  EXPECT_EQ(trainer.stats().segments_observed, 6u);
  EXPECT_EQ(trainer.stats().refits_completed, 1u);
  EXPECT_EQ(trainer.stats().fit_failures, 0u);
  EXPECT_EQ(failures.value(), failures_before);
  EXPECT_EQ(trainer.stats().shadows_installed, 1u);
  const ModelLease lease = registry.Acquire();
  ASSERT_NE(lease.active, nullptr);
  EXPECT_EQ(lease.active->version, "v1");
  ASSERT_NE(lease.shadow, nullptr);
  ASSERT_TRUE(trainer.Finish().ok());
  EXPECT_EQ(trainer.stats().fit_failures, 0u);
}

// ----------------------------------------------- CT replay determinism --

struct CtReplayOutcome {
  ReplayReport report;
  ContinuousTrainer::Stats stats;
  std::string final_version;
};

CtReplayOutcome RunCtReplay(int threads, size_t shards) {
  const CtFixture& fixture = CtFixture::Get();
  const int prior_threads = MaxThreads();
  SetMaxThreads(threads);

  ModelRegistry registry;
  TRAJKIT_CHECK(registry.Publish(CloneAs("v1")).ok());

  ContinuousTrainingOptions ct;
  ct.step_every = 8;
  ct.refit_every = 16;
  ct.min_fit_samples = 16;
  ct.forest.n_estimators = 10;
  ct.promotion.min_samples = 8;
  ct.promotion.min_accuracy_delta = -1.0;  // Promote once the window fills.
  ContinuousTrainer trainer(&registry, fixture.labels, ct);

  ServingPlaneOptions plane_options;
  plane_options.shards = shards;
  plane_options.batching.max_batch_size = 16;
  plane_options.batching.shadow_evaluator = &trainer.evaluator();
  ServingPlane plane(&registry, plane_options);

  ReplayOptions replay_options;
  replay_options.trainer = &trainer;
  CtReplayOutcome outcome;
  outcome.report =
      std::move(ReplayCorpus(fixture.corpus, fixture.labels, plane,
                             replay_options))
          .value();
  outcome.stats = trainer.stats();
  outcome.final_version = registry.Acquire().active->version;
  SetMaxThreads(prior_threads);
  return outcome;
}

// The whole point of barrier-driven trainer steps: which model answers
// which segment is a pure function of the corpus, so the scored stream —
// and the promotion history — is identical at any thread/shard count.
TEST(ContinuousTrainerTest, CtReplayIsByteIdenticalAcrossThreadsAndShards) {
  const CtReplayOutcome base = RunCtReplay(/*threads=*/1, /*shards=*/1);
  EXPECT_GE(base.stats.promotions, 1u)
      << "corpus too small for the promotion window";
  EXPECT_EQ(base.final_version.rfind("ct-v", 0), 0u) << base.final_version;

  for (const auto& [threads, shards] :
       std::vector<std::pair<int, size_t>>{{4, 1}, {4, 2}}) {
    const CtReplayOutcome other = RunCtReplay(threads, shards);
    EXPECT_EQ(other.report.y_pred, base.report.y_pred)
        << "threads=" << threads << " shards=" << shards;
    EXPECT_EQ(other.report.y_true, base.report.y_true);
    EXPECT_EQ(other.report.segments_evaluated,
              base.report.segments_evaluated);
    EXPECT_EQ(other.report.correct, base.report.correct);
    EXPECT_EQ(other.stats.promotions, base.stats.promotions);
    EXPECT_EQ(other.stats.rejections, base.stats.rejections);
    EXPECT_EQ(other.stats.shadows_installed, base.stats.shadows_installed);
    EXPECT_EQ(other.final_version, base.final_version);
  }
}

// ---------------------------------------------------------- ServeConfig --

TEST(ServeConfigTest, ValidationNamesTheOffendingFlag) {
  const auto parse = [](std::vector<std::string> tokens) {
    FlagSet flags(std::move(tokens));
    return ParseServeFlags(*flags, ServeReplayDefaults());
  };

  const auto expect_error_naming = [&](std::vector<std::string> tokens,
                                       const std::string& flag) {
    const auto result = parse(std::move(tokens));
    ASSERT_FALSE(result.ok()) << flag;
    EXPECT_NE(result.status().message().find(flag), std::string::npos)
        << result.status().message();
  };

  expect_error_naming({"--shards=0"}, "--shards");
  expect_error_naming({"--batch=0"}, "--batch");
  expect_error_naming({"--users=0"}, "--users");
  expect_error_naming({"--max_delay_ms=-1"}, "--max_delay_ms");
  // The batch timer is gone: even a well-formed leftover flag is rejected
  // rather than silently ignored.
  expect_error_naming({"--max_delay_ms=2"}, "--max_delay_ms");
  {
    const auto result = parse({"--max_delay_ms=2"});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  expect_error_naming({"--retries=-1"}, "--retries");
  expect_error_naming({"--fault_spec=bogus"}, "--fault_spec");
  expect_error_naming(
      {"--continuous_training", "--step_every=16", "--refit_every=8"},
      "--refit_every");
  expect_error_naming(
      {"--continuous_training", "--min_fit=64", "--ct_buffer=8"},
      "--ct_buffer");
  expect_error_naming({"--continuous_training", "--cost_budget=0"},
                      "--cost_budget");
  expect_error_naming({"--continuous_training", "--drift_degraded_rate=1.5"},
                      "--drift_degraded_rate");
}

TEST(ServeConfigTest, CtFlagsRequireTheMainSwitch) {
  for (const std::string flag :
       {"--step_every=8", "--min_shadow=4", "--promote_epsilon=0.1",
        "--drift_window=64"}) {
    FlagSet flags({flag});
    const auto result = ParseServeFlags(*flags, ServeReplayDefaults());
    ASSERT_FALSE(result.ok()) << flag;
    EXPECT_NE(result.status().message().find("requires --continuous_training"),
              std::string::npos)
        << result.status().message();
  }
}

TEST(ServeConfigTest, DefaultsAndOverridesRoundTrip) {
  {
    // Flagless serve-replay: historic defaults, CT off.
    FlagSet flags({});
    const auto config = ParseServeFlags(*flags, ServeReplayDefaults());
    ASSERT_TRUE(config.ok());
    EXPECT_EQ(config->users, 20);
    EXPECT_EQ(config->shards, 1u);
    EXPECT_FALSE(config->ct.enabled);
    EXPECT_FALSE(config->fault_spec.has_value());
  }
  {
    // statusz carries default chaos; --fault_spec= (empty) disables it.
    FlagSet flags({"--fault_spec="});
    const auto config = ParseServeFlags(*flags, StatuszDefaults());
    ASSERT_TRUE(config.ok());
    EXPECT_EQ(config->shards, 2u);
    EXPECT_FALSE(config->fault_spec.has_value());
    const auto chaotic = ParseServeFlags(*FlagSet({}), StatuszDefaults());
    ASSERT_TRUE(chaotic.ok());
    EXPECT_TRUE(chaotic->fault_spec.has_value());
  }
  {
    FlagSet flags({"--continuous_training", "--step_every=8",
                   "--refit_every=24", "--min_fit=24", "--min_shadow=12",
                   "--promote_epsilon=-0.5", "--ct_trees=7"});
    const auto config = ParseServeFlags(*flags, ServeReplayDefaults());
    ASSERT_TRUE(config.ok());
    ASSERT_TRUE(config->ct.enabled);
    const ContinuousTrainingOptions options = config->ct.MakeOptions();
    EXPECT_EQ(options.step_every, 8u);
    EXPECT_EQ(options.refit_every, 24u);
    EXPECT_EQ(options.min_fit_samples, 24u);
    EXPECT_EQ(options.promotion.min_samples, 12u);
    EXPECT_DOUBLE_EQ(options.promotion.min_accuracy_delta, -0.5);
    EXPECT_EQ(options.forest.n_estimators, 7);
  }
}

}  // namespace
}  // namespace trajkit::serve
