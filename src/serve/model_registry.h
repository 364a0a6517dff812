#ifndef TRAJKIT_SERVE_MODEL_REGISTRY_H_
#define TRAJKIT_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "ml/matrix.h"
#include "ml/random_forest.h"
#include "traj/trajectory_features.h"

namespace trajkit::serve {

/// How far down the degradation chain the answer came from. The predictor
/// walks kNone -> kPreviousModel -> kMajorityClass and stops at the first
/// rung that can produce an answer (see BatchPredictor).
enum class DegradationLevel {
  kNone = 0,           ///< Served by the active model.
  kPreviousModel = 1,  ///< Active model unusable; served by the last good
                       ///< snapshot the predictor had cached.
  kMajorityClass = 2,  ///< No usable model; label-prior majority class.
};

const char* DegradationLevelToString(DegradationLevel level);

/// One prediction answer.
struct Prediction {
  /// Predicted class index — bit-identical to `RandomForest::Predict`,
  /// and so to the offline pipeline on the same features.
  int label = -1;
  /// Per-class probabilities (soft-voting average over trees).
  std::vector<double> probabilities;
  /// Version of the model that served the request.
  std::string model_version;
  /// Enqueue-to-completion latency, filled by BatchPredictor (0 on the
  /// direct path).
  double latency_seconds = 0.0;
  /// Which rung of the fallback chain produced this answer.
  DegradationLevel degradation = DegradationLevel::kNone;
  /// What the shadow candidate would have answered for the same features,
  /// or -1 when no shadow model was scored on this request. Never served —
  /// recorded so the continuous trainer can compare accuracy offline.
  int shadow_label = -1;
  /// Version of the shadow model behind `shadow_label` (empty when -1).
  std::string shadow_version;
};

/// Reusable buffers of ServingModel::PredictRows: the prepared forest
/// input and the one-pass outputs. A caller that keeps one per thread
/// predicts without allocating once the buffers have grown to its
/// largest batch.
struct PredictScratch {
  ml::Matrix prepared;
  std::vector<int> labels;
  /// rows x num_classes; row r belongs to labels[r].
  ml::Matrix probabilities;
};

/// A deployable model: forest + feature-subset mask. The two travel
/// together so a hot swap can never pair one model's forest with another's
/// subset (the registry publishes them as one immutable snapshot). There
/// is no feature scaling: a random forest is invariant to it.
struct ServingModel {
  std::string version;
  ml::RandomForest forest;
  /// Width of the full feature vector requests carry (70 for the paper's
  /// extractor, 78 with extended features).
  int num_input_features = traj::kNumTrajectoryFeatures;
  /// Indices into the full vector the forest was trained on (e.g. the
  /// Fig. 3 top-20 mask); empty = all features, in order.
  std::vector<int> feature_subset;

  /// Number of columns the forest actually consumes.
  size_t EffectiveFeatureCount() const {
    return feature_subset.empty() ? static_cast<size_t>(num_input_features)
                                  : feature_subset.size();
  }

  /// Checks internal consistency (fitted forest, subset indices in range,
  /// widths line up). Registered models are always valid.
  Status Validate() const;

  /// Subsets full-width rows into the forest's input matrix.
  /// Returns InvalidArgument when any row has the wrong width.
  Result<ml::Matrix> PrepareBatch(
      const std::vector<std::vector<double>>& rows) const;

  /// Predicts a batch of full-width feature vectors.
  Result<std::vector<Prediction>> PredictBatch(
      const std::vector<std::vector<double>>& rows) const;

  /// The batch core behind PredictBatch, into caller-owned buffers:
  /// prepares `rows` into scratch->prepared, then fills scratch->labels
  /// and scratch->probabilities from one forest descent per row
  /// (ml::RandomForest::PredictWithProba). Returns InvalidArgument when
  /// any row has the wrong width.
  Status PredictRows(std::span<const std::vector<double>* const> rows,
                     PredictScratch* scratch) const;

  /// Single-request convenience (the unbatched baseline path).
  Result<Prediction> PredictOne(std::span<const double> features) const;
};

/// Validating constructor: moves the parts into a ServingModel and returns
/// an error instead of a partially-usable model.
Result<ServingModel> MakeServingModel(std::string version,
                                      ml::RandomForest forest,
                                      int num_input_features,
                                      std::vector<int> feature_subset = {});

/// Reads a feature-subset mask from the Fig. 3 selection output
/// (`exp_fig3_feature_selection` CSV: method,k,feature,cv_accuracy): the
/// first `top_k` features of `method` (e.g. "importance", "wrapper"),
/// mapped to indices via the trajectory-feature name registry.
Result<std::vector<int>> LoadFig3FeatureSubset(const std::string& path,
                                               std::string_view method,
                                               int top_k);

/// The role a published model plays in the serving plane.
enum class ModelRole {
  kActive = 0,  ///< Serves traffic.
  kShadow = 1,  ///< Scored on the same batches as the active model for
                ///< promotion decisions; its answers are never served.
};

const char* ModelRoleToString(ModelRole role);

/// One coherent read of the registry: the (active, last-good, shadow)
/// triple as of sequence number `seq`. All three pointers were current at
/// the same instant — a reader can never observe a promotion half-applied
/// (e.g. the new active paired with the pre-promotion last-good). Each
/// pointer is an immutable snapshot that stays alive for as long as the
/// lease holds it, even across hot swaps.
struct ModelLease {
  std::shared_ptr<const ServingModel> active;
  /// The model that was active before the most recent swap/promotion
  /// (rollback + audit target); nullptr until the first replacement.
  std::shared_ptr<const ServingModel> last_good;
  /// The shadow candidate under evaluation, or nullptr.
  std::shared_ptr<const ServingModel> shadow;
  /// Registry mutation counter at acquire time (starts at 0, bumps on
  /// every publish / promote / retire).
  uint64_t seq = 0;
};

/// One entry of the registry's bounded audit trail. `event` is one of
/// "publish_active", "publish_shadow", "promote", "retire_shadow";
/// `detail` carries the caller-supplied reason (e.g. the promotion
/// policy's accuracy delta).
struct RegistryAuditEvent {
  uint64_t seq = 0;
  std::string event;
  std::string version;
  std::string detail;
};

/// Versioned registry of serving models with atomic hot-swap: readers call
/// Acquire() and get an immutable ModelLease — a consistent
/// (active, last-good, shadow) triple whose models stay alive for as long
/// as the lease is held, even if the registry mutates mid-request.
/// Writers Publish models into a role; PromoteShadow atomically swaps the
/// shadow candidate into the active slot (demoting the old active to
/// last-good) with a trace-recorded audit landmark. Thread-safe;
/// TSan-clean (see tests/serve_test.cc + serve_ct_test.cc race tests).
class ModelRegistry {
 public:
  /// Adds a model under its version. Error on validation failure or
  /// duplicate version. Does not change what readers see.
  Status Register(ServingModel model);

  /// Register + make visible in `role` in one step. Shadow publishes are
  /// rejected when the candidate's input width differs from the active
  /// model's (the two must score the same request rows).
  Status Publish(ServingModel model, ModelRole role = ModelRole::kActive);

  /// Makes the already-registered `version` visible in `role`.
  Status Publish(std::string_view version, ModelRole role);

  /// Atomically swaps the shadow into the active slot: the old active
  /// becomes last-good, the shadow slot empties, and a
  /// "registry_promotion" trace landmark + audit event record `reason`.
  /// FailedPrecondition when no shadow is published.
  Status PromoteShadow(std::string_view reason);

  /// Drops the shadow candidate (rejected by the promotion policy). The
  /// retired model is also unregistered — unless it is still the active
  /// or last-good model — so a long-running trainer's rejected candidates
  /// don't accumulate. FailedPrecondition when no shadow is published.
  Status RetireShadow(std::string_view reason);

  /// One coherent snapshot of (active, last_good, shadow, seq).
  ModelLease Acquire() const;

  /// The most recent audit events, oldest first (bounded; older events
  /// are dropped).
  std::vector<RegistryAuditEvent> AuditTrail() const;

  /// A registered model by version, or nullptr.
  std::shared_ptr<const ServingModel> Get(std::string_view version) const;

  /// Registered versions, ascending.
  std::vector<std::string> Versions() const;

  size_t size() const;

 private:
  /// Appends to the audit trail and mirrors the tail into the
  /// "serve.registry.audit" info metric. Requires mu_ held.
  void AppendAuditLocked(std::string_view event, std::string_view version,
                         std::string_view detail);
  /// Exports active-model metrics (version info + flat-form gauges).
  /// Requires mu_ held and active_ set.
  void ExportActiveMetricsLocked();

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ServingModel>, std::less<>>
      models_;
  std::shared_ptr<const ServingModel> active_;
  std::shared_ptr<const ServingModel> last_good_;
  std::shared_ptr<const ServingModel> shadow_;
  uint64_t seq_ = 0;
  std::deque<RegistryAuditEvent> audit_;
};

}  // namespace trajkit::serve

#endif  // TRAJKIT_SERVE_MODEL_REGISTRY_H_
