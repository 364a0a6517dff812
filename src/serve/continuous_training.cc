#include "serve/continuous_training.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/strings.h"
#include "ml/dataset.h"
#include "ml/flat_forest.h"
#include "ml/matrix.h"
#include "obs/metrics.h"
#include "traj/trajectory_features.h"

namespace trajkit::serve {

namespace {

/// Candidate versions are "ct-v<N>" with N starting at 2 (v1 is
/// conventionally the bootstrap model).
constexpr char kVersionPrefix[] = "ct-v";

obs::Counter& CtCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

/// Deterministic serving-cost proxy for the promotion policy: compiled
/// node counts instead of measured latency, so verdicts can't flip on
/// wall-clock noise. 1.0 unless both an active and a shadow model are set.
double NodeCostRatio(const ModelLease& lease) {
  if (lease.active == nullptr || lease.shadow == nullptr) return 1.0;
  return static_cast<double>(lease.shadow->forest.flat()->num_nodes()) /
         static_cast<double>(lease.active->forest.flat()->num_nodes());
}

}  // namespace

ContinuousTrainer::ContinuousTrainer(ModelRegistry* registry,
                                     core::LabelSet labels,
                                     ContinuousTrainingOptions options)
    : registry_(registry),
      labels_(std::move(labels)),
      options_(std::move(options)) {
  if (options_.refit_every < options_.step_every) {
    options_.refit_every = options_.step_every;
  }
  if (options_.buffer_capacity < options_.min_fit_samples) {
    options_.buffer_capacity = options_.min_fit_samples;
  }
}

ContinuousTrainer::~ContinuousTrainer() {
  if (fit_.valid()) fit_.get();
}

void ContinuousTrainer::ObserveSegment(const ClosedSegment& segment,
                                       int true_class) {
  if (true_class < 0 || true_class >= labels_.num_classes()) return;
  // Every forest fit rejects a NaN or inf feature, so one buffered bad
  // example would fail every refit until it aged out of the buffer.
  for (const double value : segment.features) {
    if (!std::isfinite(value)) {
      ++stats_.nonfinite_dropped;
      CtCounter("serve.ct.nonfinite_dropped").Increment();
      return;
    }
  }
  LabeledExample example;
  example.features = segment.features;
  example.label = true_class;

  // Drift baseline: Welford over the first drift.window examples, then
  // frozen — the "what the world looked like at startup" sketch.
  if (options_.drift.enabled && baseline_count_ < options_.drift.window) {
    if (baseline_mean_.empty()) {
      baseline_mean_.assign(example.features.size(), 0.0);
      baseline_m2_.assign(example.features.size(), 0.0);
    }
    if (baseline_mean_.size() == example.features.size()) {
      ++baseline_count_;
      for (size_t f = 0; f < example.features.size(); ++f) {
        const double x = example.features[f];
        const double delta = x - baseline_mean_[f];
        baseline_mean_[f] += delta / static_cast<double>(baseline_count_);
        baseline_m2_[f] += delta * (x - baseline_mean_[f]);
      }
    }
  }

  buffer_.push_back(std::move(example));
  while (buffer_.size() > options_.buffer_capacity) buffer_.pop_front();
  ++labeled_since_step_;
  ++labeled_since_fit_;
  ++stats_.segments_observed;
  CtCounter("serve.ct.segments_observed").Increment();
  obs::MetricsRegistry::Global()
      .GetGauge("serve.ct.buffer_size")
      .Set(static_cast<double>(buffer_.size()));
}

void ContinuousTrainer::OnResult(int true_class,
                                 const Prediction& prediction) {
  ++window_results_;
  if (prediction.degradation != DegradationLevel::kNone) ++window_degraded_;
  if (prediction.shadow_label >= 0) {
    evaluator_.ObserveOutcome(prediction.shadow_version, true_class,
                              prediction.label, prediction.shadow_label);
  }
}

bool ContinuousTrainer::StepDue() const {
  return labeled_since_step_ >= options_.step_every;
}

Status ContinuousTrainer::Step() { return StepImpl(/*allow_refit=*/true); }

Status ContinuousTrainer::Finish() { return StepImpl(/*allow_refit=*/false); }

Status ContinuousTrainer::StepImpl(bool allow_refit) {
  labeled_since_step_ = 0;
  ++stats_.steps;
  CtCounter("serve.ct.steps").Increment();

  // 1. Join the refit launched at an earlier barrier and publish it as
  // the shadow candidate. Blocking here (instead of polling readiness) is
  // what keeps installs replay-step-deterministic: the install point
  // depends on the corpus position, never on how fast the fit ran.
  if (fit_.valid()) {
    Result<ServingModel> candidate = fit_.get();
    ++stats_.refits_completed;
    if (!candidate.ok()) {
      ++stats_.fit_failures;
      CtCounter("serve.ct.fit_failures").Increment();
    } else {
      const std::string version = candidate->version;
      const Status published =
          registry_->Publish(std::move(candidate).value(), ModelRole::kShadow);
      if (!published.ok()) {
        // A rejected publish (e.g. input-width mismatch) is a failed
        // candidate, not a trainer error: the active model keeps serving.
        ++stats_.fit_failures;
        CtCounter("serve.ct.fit_failures").Increment();
      } else {
        ++stats_.shadows_installed;
        evaluator_.StartWindow(version, NodeCostRatio(registry_->Acquire()));
      }
    }
  }

  // 2. Verdict on a matured shadow window.
  const ModelLease lease = registry_->Acquire();
  if (lease.shadow != nullptr) {
    const ShadowEvaluator::WindowStats window = evaluator_.window();
    if (window.open && window.version == lease.shadow->version &&
        window.labeled >= options_.promotion.min_samples) {
      const double delta = window.accuracy_delta();
      if (delta >= options_.promotion.min_accuracy_delta &&
          window.cost_ratio <= options_.promotion.max_cost_ratio) {
        TRAJKIT_RETURN_IF_ERROR(registry_->PromoteShadow(StrPrintf(
            "accuracy_delta=%+.4f cost_ratio=%.2f labeled=%zu", delta,
            window.cost_ratio, window.labeled)));
        ++stats_.promotions;
      } else {
        const std::string reason =
            window.cost_ratio > options_.promotion.max_cost_ratio
                ? StrPrintf("cost_ratio=%.2f > budget %.2f",
                            window.cost_ratio,
                            options_.promotion.max_cost_ratio)
                : StrPrintf("accuracy_delta=%+.4f < %+.4f over %zu labeled",
                            delta, options_.promotion.min_accuracy_delta,
                            window.labeled);
        TRAJKIT_RETURN_IF_ERROR(registry_->RetireShadow(reason));
        ++stats_.rejections;
        CtCounter("serve.ct.rejections").Increment();
      }
      evaluator_.EndWindow();
    }
  }

  if (allow_refit) {
    CheckDrift();
    // 3. Kick the next refit once enough fresh labels arrived (or drift
    // demanded one early) and the previous candidate has been resolved —
    // at most one candidate in flight or in shadow at a time.
    const bool due =
        labeled_since_fit_ >= options_.refit_every || drift_pending_;
    const bool shadow_busy = registry_->Acquire().shadow != nullptr;
    if (due && !shadow_busy && !fit_.valid() &&
        buffer_.size() >= options_.min_fit_samples) {
      LaunchRefit();
      drift_pending_ = false;
    }
  }

  window_results_ = 0;
  window_degraded_ = 0;
  return Status::Ok();
}

void ContinuousTrainer::LaunchRefit() {
  auto snapshot = std::make_shared<std::vector<LabeledExample>>(
      buffer_.begin(), buffer_.end());
  const std::string version =
      kVersionPrefix + std::to_string(next_version_++);
  ml::RandomForestParams params = options_.forest;
  // Distinct but deterministic forests per refit.
  params.seed = options_.forest.seed + stats_.refits_launched;
  std::vector<std::string> class_names = labels_.class_names();
  ++stats_.refits_launched;
  labeled_since_fit_ = 0;
  CtCounter("serve.ct.refits").Increment();

  // The closure owns everything it reads.
  fit_ = std::async(
      std::launch::async,
      [snapshot = std::move(snapshot), version, params,
       class_names = std::move(class_names)]() -> Result<ServingModel> {
        const size_t n = snapshot->size();
        if (n == 0) {
          return Status::FailedPrecondition("refit with an empty buffer");
        }
        const size_t width = (*snapshot)[0].features.size();
        ml::Matrix features(n, width);
        std::vector<int> labels(n);
        for (size_t i = 0; i < n; ++i) {
          const LabeledExample& example = (*snapshot)[i];
          if (example.features.size() != width) {
            return Status::InvalidArgument(StrPrintf(
                "buffered example %zu has %zu features, expected %zu", i,
                example.features.size(), width));
          }
          std::copy(example.features.begin(), example.features.end(),
                    features.MutableRow(i).begin());
          labels[i] = example.label;
        }
        const std::vector<std::string>& canonical =
            traj::TrajectoryFeatureExtractor::FeatureNames();
        std::vector<std::string> feature_names;
        if (canonical.size() == width) {
          feature_names = canonical;
        } else {
          feature_names.reserve(width);
          for (size_t f = 0; f < width; ++f) {
            feature_names.push_back(StrPrintf("f%zu", f));
          }
        }
        TRAJKIT_ASSIGN_OR_RETURN(
            ml::Dataset dataset,
            ml::Dataset::Create(std::move(features), std::move(labels), {},
                                std::move(feature_names),
                                std::move(class_names)));
        // Fit compiles the flat inference form, so it happens here, off
        // the serving path.
        ml::RandomForest forest(params);
        TRAJKIT_RETURN_IF_ERROR(forest.Fit(dataset));
        return MakeServingModel(version, std::move(forest),
                                static_cast<int>(width));
      });
}

void ContinuousTrainer::CheckDrift() {
  if (!options_.drift.enabled) return;
  bool triggered = false;

  // Feature-distribution sketch: current-window mean vs frozen baseline,
  // in baseline standard deviations.
  if (baseline_count_ >= options_.drift.window &&
      buffer_.size() >= options_.drift.window && !baseline_mean_.empty()) {
    const size_t window = options_.drift.window;
    const size_t width = baseline_mean_.size();
    std::vector<double> current(width, 0.0);
    size_t counted = 0;
    for (size_t i = buffer_.size() - window; i < buffer_.size(); ++i) {
      if (buffer_[i].features.size() != width) continue;
      ++counted;
      for (size_t f = 0; f < width; ++f) current[f] += buffer_[i].features[f];
    }
    if (counted > 0) {
      double score = 0.0;
      const double denom_n = static_cast<double>(baseline_count_);
      for (size_t f = 0; f < width; ++f) {
        const double mean = current[f] / static_cast<double>(counted);
        const double variance = baseline_m2_[f] / denom_n;
        const double sigma = std::sqrt(std::max(variance, 0.0)) + 1e-9;
        score = std::max(score, std::abs(mean - baseline_mean_[f]) / sigma);
      }
      obs::MetricsRegistry::Global()
          .GetGauge("serve.ct.drift_score")
          .Set(score);
      if (score > options_.drift.threshold) {
        triggered = true;
        // Re-anchor the baseline on the shifted window so one sustained
        // shift fires once, not at every barrier forever.
        baseline_count_ = 0;
        baseline_mean_.clear();
        baseline_m2_.clear();
        for (size_t i = buffer_.size() - window; i < buffer_.size(); ++i) {
          if (buffer_[i].features.size() != width) continue;
          if (baseline_mean_.empty()) {
            baseline_mean_.assign(width, 0.0);
            baseline_m2_.assign(width, 0.0);
          }
          ++baseline_count_;
          for (size_t f = 0; f < width; ++f) {
            const double x = buffer_[i].features[f];
            const double delta = x - baseline_mean_[f];
            baseline_mean_[f] += delta / static_cast<double>(baseline_count_);
            baseline_m2_[f] += delta * (x - baseline_mean_[f]);
          }
        }
      }
    }
  }

  // Degradation-rung rate: a serving plane mostly answering off the
  // fallback chain is a model-health signal, not just an infra one.
  if (options_.drift.max_degraded_rate > 0.0 && window_results_ >= 16) {
    const double rate = static_cast<double>(window_degraded_) /
                        static_cast<double>(window_results_);
    if (rate > options_.drift.max_degraded_rate) triggered = true;
  }

  if (triggered) {
    drift_pending_ = true;
    ++stats_.drift_triggers;
    CtCounter("serve.ct.drift_triggers").Increment();
  }
}

}  // namespace trajkit::serve
