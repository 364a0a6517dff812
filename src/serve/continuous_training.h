#ifndef TRAJKIT_SERVE_CONTINUOUS_TRAINING_H_
#define TRAJKIT_SERVE_CONTINUOUS_TRAINING_H_

// The continuous-training loop that closes train -> serve -> observe ->
// retrain: labeled closed segments accumulate in a bounded buffer, a
// background thread refits a candidate forest on a snapshot, the
// candidate is published into the registry's *shadow* slot (scored on the
// live batches by BatchPredictor + ShadowEvaluator, never served), and a
// promotion policy decides promote-vs-retire once the evaluation window
// matures. Drift detection — feature-distribution sketches plus the
// degradation-rung rate — forces an early refit.
//
// Determinism contract: the driver API (ObserveSegment / OnResult /
// StepDue / Step / Finish) is single-threaded — the replay ingest thread
// calls it — and every registry mutation happens inside Step()/Finish(),
// which the replay driver only invokes at barriers where all in-flight
// requests have been gathered. The refit launched at one barrier is
// *blocked on* (never polled) at the next, so which model answers which
// request is a pure function of the corpus: `serve-replay
// --continuous_training` is byte-identical at any thread/shard count.
// Only the background fit itself overlaps serving.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/label_sets.h"
#include "ml/random_forest.h"
#include "serve/model_registry.h"
#include "serve/session_manager.h"
#include "serve/shadow_evaluator.h"

namespace trajkit::serve {

/// When a matured shadow window earns promotion. Both thresholds are
/// deterministic under replay: the accuracy delta is computed from
/// labeled gather-time outcomes and the cost ratio from flat-forest node
/// counts (a serving-cost proxy that, unlike measured latency, cannot
/// flip a verdict between runs).
struct PromotionPolicy {
  /// Labeled outcomes the window must accumulate before any verdict.
  size_t min_samples = 64;
  /// Epsilon: shadow accuracy must beat active accuracy by at least this
  /// (negative values promote any candidate once the window matures —
  /// useful for demos/CI).
  double min_accuracy_delta = 0.0;
  /// Budget on shadow/active flat node count (the latency proxy).
  double max_cost_ratio = 4.0;
};

struct DriftOptions {
  bool enabled = true;
  /// Segments per distribution sketch: the baseline freezes over the
  /// first `window` labeled segments; the current sketch is the most
  /// recent `window`.
  size_t window = 128;
  /// Trigger when any feature's current mean drifts from the baseline
  /// mean by more than this many baseline standard deviations.
  double threshold = 8.0;
  /// Trigger when more than this fraction of gathered answers since the
  /// last step came off a degradation rung (0 disables; needs at least
  /// 16 answers in the step window).
  double max_degraded_rate = 0.0;
};

struct ContinuousTrainingOptions {
  /// Labeled closed segments between trainer step barriers (StepDue).
  size_t step_every = 16;
  /// Labeled segments between refits (>= step_every; a drift trigger
  /// overrides and refits at the next barrier).
  size_t refit_every = 64;
  /// Minimum buffered examples before any refit.
  size_t min_fit_samples = 64;
  /// Bounded labeled buffer (oldest dropped first).
  size_t buffer_capacity = 4096;
  /// Hyper-parameters for candidate forests. `seed` is the base; refit k
  /// fits with seed + k so candidates differ deterministically.
  ml::RandomForestParams forest;
  PromotionPolicy promotion;
  DriftOptions drift;
};

/// Drives refits/promotions against a ModelRegistry. Thread contract: all
/// public methods are driver-thread-only (see file comment); the only
/// internal concurrency is the background fit, which touches nothing but
/// its snapshot until Step() joins it.
class ContinuousTrainer {
 public:
  ContinuousTrainer(ModelRegistry* registry, core::LabelSet labels,
                    ContinuousTrainingOptions options);
  ~ContinuousTrainer();

  ContinuousTrainer(const ContinuousTrainer&) = delete;
  ContinuousTrainer& operator=(const ContinuousTrainer&) = delete;

  /// The evaluator BatchPredictorOptions::shadow_evaluator should point
  /// at, so batch-time scoring lands in this trainer's windows.
  ShadowEvaluator& evaluator() { return evaluator_; }

  /// A labeled closed segment entering the serving plane (`true_class`
  /// from the replay corpus's label set). Buffers the example and feeds
  /// the drift baseline; a segment with a NaN or inf feature is dropped
  /// and counted in `nonfinite_dropped` instead.
  void ObserveSegment(const ClosedSegment& segment, int true_class);

  /// A gathered, successfully answered request: forwards the labeled
  /// outcome to the shadow window and tracks the degradation rate.
  void OnResult(int true_class, const Prediction& prediction);

  /// True when enough labeled segments arrived since the last Step that
  /// the driver should drain in-flight requests and call Step().
  bool StepDue() const;

  /// One barrier: join a due refit and publish it as shadow, deliver a
  /// promotion verdict on a matured window, run drift checks, and kick
  /// the next refit. Caller must have drained all in-flight requests.
  Status Step();

  /// Final barrier at end of stream: joins any in-flight refit and
  /// delivers a final verdict, but kicks nothing new.
  Status Finish();

  struct Stats {
    size_t segments_observed = 0;
    size_t steps = 0;
    size_t refits_launched = 0;
    size_t refits_completed = 0;
    size_t fit_failures = 0;
    size_t shadows_installed = 0;
    size_t promotions = 0;
    size_t rejections = 0;
    size_t drift_triggers = 0;
    size_t nonfinite_dropped = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct LabeledExample {
    std::vector<double> features;
    int label = 0;
  };

  Status StepImpl(bool allow_refit);
  void LaunchRefit();
  /// Distribution + degradation-rate checks; sets drift_pending_.
  void CheckDrift();

  ModelRegistry* registry_;
  core::LabelSet labels_;
  ContinuousTrainingOptions options_;
  ShadowEvaluator evaluator_;

  std::deque<LabeledExample> buffer_;
  size_t labeled_since_step_ = 0;
  size_t labeled_since_fit_ = 0;
  bool drift_pending_ = false;

  // Drift sketches: baseline Welford mean/M2 per feature, frozen once
  // drift.window segments accumulated.
  size_t baseline_count_ = 0;
  std::vector<double> baseline_mean_;
  std::vector<double> baseline_m2_;

  // Degradation-rate window, reset each Step.
  size_t window_results_ = 0;
  size_t window_degraded_ = 0;

  // The in-flight refit. Valid exactly between LaunchRefit and the next
  // Step/Finish/destructor join.
  std::future<Result<ServingModel>> fit_;
  size_t next_version_ = 2;

  Stats stats_;
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_CONTINUOUS_TRAINING_H_
