#include "serve/model_registry.h"

#include <algorithm>
#include <utility>

#include "common/csv.h"
#include "common/strings.h"
#include "ml/flat_forest.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"

namespace trajkit::serve {

const char* DegradationLevelToString(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kNone:
      return "none";
    case DegradationLevel::kPreviousModel:
      return "previous_model";
    case DegradationLevel::kMajorityClass:
      return "majority_class";
  }
  return "unknown";
}

Status ServingModel::Validate() const {
  if (version.empty()) {
    return Status::InvalidArgument("serving model needs a non-empty version");
  }
  if (!forest.fitted()) {
    return Status::FailedPrecondition("serving model '" + version +
                                      "' holds an unfitted forest");
  }
  if (num_input_features <= 0) {
    return Status::InvalidArgument("num_input_features must be positive");
  }
  std::vector<bool> seen(static_cast<size_t>(num_input_features), false);
  for (const int index : feature_subset) {
    if (index < 0 || index >= num_input_features) {
      return Status::InvalidArgument(StrPrintf(
          "feature-subset index %d out of range [0, %d)", index,
          num_input_features));
    }
    if (seen[static_cast<size_t>(index)]) {
      return Status::InvalidArgument(
          StrPrintf("duplicate feature-subset index %d", index));
    }
    seen[static_cast<size_t>(index)] = true;
  }
  const size_t effective = EffectiveFeatureCount();
  if (forest.FeatureImportances().size() != effective) {
    return Status::InvalidArgument(StrPrintf(
        "forest was trained on %zu features but the subset selects %zu",
        forest.FeatureImportances().size(), effective));
  }
  return Status::Ok();
}

namespace {

/// Subsets full-width rows into `prepared` (reshaped, its storage
/// reused).
Status PrepareRows(const ServingModel& model,
                   std::span<const std::vector<double>* const> rows,
                   ml::Matrix* prepared) {
  prepared->Resize(rows.size(), model.EffectiveFeatureCount());
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::vector<double>& row = *rows[r];
    if (row.size() != static_cast<size_t>(model.num_input_features)) {
      return Status::InvalidArgument(StrPrintf(
          "feature vector %zu has %zu values, model '%s' expects %d",
          r, row.size(), model.version.c_str(), model.num_input_features));
    }
    const std::span<double> out = prepared->MutableRow(r);
    if (model.feature_subset.empty()) {
      std::copy(row.begin(), row.end(), out.begin());
    } else {
      for (size_t c = 0; c < model.feature_subset.size(); ++c) {
        out[c] = row[static_cast<size_t>(model.feature_subset[c])];
      }
    }
  }
  return Status::Ok();
}

std::vector<const std::vector<double>*> RowPointers(
    const std::vector<std::vector<double>>& rows) {
  std::vector<const std::vector<double>*> pointers(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) pointers[r] = &rows[r];
  return pointers;
}

}  // namespace

Result<ml::Matrix> ServingModel::PrepareBatch(
    const std::vector<std::vector<double>>& rows) const {
  ml::Matrix prepared;
  TRAJKIT_RETURN_IF_ERROR(PrepareRows(*this, RowPointers(rows), &prepared));
  return prepared;
}

Status ServingModel::PredictRows(
    std::span<const std::vector<double>* const> rows,
    PredictScratch* scratch) const {
  TRAJKIT_RETURN_IF_ERROR(PrepareRows(*this, rows, &scratch->prepared));
  // Labels are Predict's (not an argmax over the probabilities), so
  // serving answers are bit-identical to the offline pipeline's.
  return forest.PredictWithProba(scratch->prepared, &scratch->labels,
                                 &scratch->probabilities);
}

Result<std::vector<Prediction>> ServingModel::PredictBatch(
    const std::vector<std::vector<double>>& rows) const {
  if (rows.empty()) return std::vector<Prediction>{};
  PredictScratch scratch;
  TRAJKIT_RETURN_IF_ERROR(PredictRows(RowPointers(rows), &scratch));
  std::vector<Prediction> out(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    out[r].label = scratch.labels[r];
    const std::span<const double> row = scratch.probabilities.Row(r);
    out[r].probabilities.assign(row.begin(), row.end());
    out[r].model_version = version;
  }
  return out;
}

Result<Prediction> ServingModel::PredictOne(
    std::span<const double> features) const {
  std::vector<std::vector<double>> rows(1);
  rows[0].assign(features.begin(), features.end());
  TRAJKIT_ASSIGN_OR_RETURN(std::vector<Prediction> predictions,
                           PredictBatch(rows));
  return std::move(predictions.front());
}

Result<ServingModel> MakeServingModel(std::string version,
                                      ml::RandomForest forest,
                                      int num_input_features,
                                      std::vector<int> feature_subset) {
  ServingModel model;
  model.version = std::move(version);
  model.forest = std::move(forest);
  model.num_input_features = num_input_features;
  model.feature_subset = std::move(feature_subset);
  TRAJKIT_RETURN_IF_ERROR(model.Validate());
  return model;
}

Result<std::vector<int>> LoadFig3FeatureSubset(const std::string& path,
                                               std::string_view method,
                                               int top_k) {
  if (top_k <= 0) {
    return Status::InvalidArgument("top_k must be positive");
  }
  TRAJKIT_ASSIGN_OR_RETURN(CsvTable table, ReadCsvFile(path, CsvOptions{}));
  const int method_col = table.ColumnIndex("method");
  const int k_col = table.ColumnIndex("k");
  const int feature_col = table.ColumnIndex("feature");
  if (method_col < 0 || k_col < 0 || feature_col < 0) {
    return Status::ParseError(
        "feature-selection CSV needs method,k,feature columns (the "
        "exp_fig3_feature_selection output format)");
  }
  std::vector<std::pair<long long, std::string>> picks;
  for (const std::vector<std::string>& row : table.rows) {
    if (row[static_cast<size_t>(method_col)] != method) continue;
    TRAJKIT_ASSIGN_OR_RETURN(long long k,
                             ParseInt64(row[static_cast<size_t>(k_col)]));
    picks.emplace_back(k, row[static_cast<size_t>(feature_col)]);
  }
  if (picks.empty()) {
    return Status::NotFound("no rows for method '" + std::string(method) +
                            "' in " + path);
  }
  std::sort(picks.begin(), picks.end());
  if (picks.size() < static_cast<size_t>(top_k)) {
    return Status::InvalidArgument(StrPrintf(
        "asked for top %d features but '%s' only ranks %zu", top_k,
        std::string(method).c_str(), picks.size()));
  }
  std::vector<int> subset;
  subset.reserve(static_cast<size_t>(top_k));
  for (int i = 0; i < top_k; ++i) {
    TRAJKIT_ASSIGN_OR_RETURN(
        int index, traj::TrajectoryFeatureExtractor::FeatureIndex(
                       picks[static_cast<size_t>(i)].second));
    subset.push_back(index);
  }
  return subset;
}

const char* ModelRoleToString(ModelRole role) {
  switch (role) {
    case ModelRole::kActive:
      return "active";
    case ModelRole::kShadow:
      return "shadow";
  }
  return "unknown";
}

Status ModelRegistry::Register(ServingModel model) {
  TRAJKIT_RETURN_IF_ERROR(model.Validate());
  auto shared = std::make_shared<const ServingModel>(std::move(model));
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = models_.emplace(shared->version, shared);
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument("model version '" + shared->version +
                                   "' is already registered");
  }
  obs::MetricsRegistry::Global()
      .GetGauge("serve.registry.models")
      .Set(static_cast<double>(models_.size()));
  return Status::Ok();
}

Status ModelRegistry::Publish(ServingModel model, ModelRole role) {
  const std::string version = model.version;
  TRAJKIT_RETURN_IF_ERROR(Register(std::move(model)));
  return Publish(version, role);
}

Status ModelRegistry::Publish(std::string_view version, ModelRole role) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(version);
  if (it == models_.end()) {
    return Status::NotFound("no registered model with version '" +
                            std::string(version) + "'");
  }
  if (role == ModelRole::kShadow) {
    // The shadow scores the exact rows the active model serves, so the two
    // must agree on the full-width input contract.
    if (active_ != nullptr &&
        it->second->num_input_features != active_->num_input_features) {
      return Status::InvalidArgument(StrPrintf(
          "shadow model '%s' consumes %d input features but active '%s' "
          "consumes %d",
          it->second->version.c_str(), it->second->num_input_features,
          active_->version.c_str(), active_->num_input_features));
    }
    shadow_ = it->second;
    ++seq_;
    obs::MetricsRegistry::Global()
        .GetCounter("serve.registry.shadow_installs")
        .Increment();
    obs::MetricsRegistry::Global().SetInfo("serve.registry.shadow_version",
                                           shadow_->version);
    AppendAuditLocked("publish_shadow", shadow_->version, "");
    return Status::Ok();
  }
  if (active_ != nullptr && active_ != it->second) last_good_ = active_;
  active_ = it->second;
  ++seq_;
  // Swap count + active version for dashboards: every activation (including
  // the first) is a swap event; the version is an info metric so the string
  // survives into the JSON/Prometheus artifacts.
  obs::MetricsRegistry::Global().GetCounter("serve.registry.swaps")
      .Increment();
  ExportActiveMetricsLocked();
  AppendAuditLocked("publish_active", active_->version, "");
  // Process-scoped trace landmark: a hot swap shows up on the timeline
  // next to the request spans it may have affected.
  obs::RequestTracer::Global().RecordGlobalInstant("registry_swap");
  return Status::Ok();
}

Status ModelRegistry::PromoteShadow(std::string_view reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shadow_ == nullptr) {
    return Status::FailedPrecondition("no shadow model to promote");
  }
  last_good_ = active_;
  active_ = shadow_;
  shadow_ = nullptr;
  ++seq_;
  obs::MetricsRegistry::Global().GetCounter("serve.registry.swaps")
      .Increment();
  obs::MetricsRegistry::Global()
      .GetCounter("serve.registry.promotions")
      .Increment();
  obs::MetricsRegistry::Global().SetInfo("serve.registry.shadow_version", "");
  ExportActiveMetricsLocked();
  AppendAuditLocked("promote", active_->version, reason);
  obs::RequestTracer::Global().RecordGlobalInstant("registry_promotion");
  return Status::Ok();
}

Status ModelRegistry::RetireShadow(std::string_view reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shadow_ == nullptr) {
    return Status::FailedPrecondition("no shadow model to retire");
  }
  const std::shared_ptr<const ServingModel> retired = std::move(shadow_);
  ++seq_;
  // Rejected candidates don't accumulate: drop the registration too,
  // unless the same model still serves another slot.
  if (retired != active_ && retired != last_good_) {
    models_.erase(retired->version);
    obs::MetricsRegistry::Global()
        .GetGauge("serve.registry.models")
        .Set(static_cast<double>(models_.size()));
  }
  obs::MetricsRegistry::Global()
      .GetCounter("serve.registry.shadow_retired")
      .Increment();
  obs::MetricsRegistry::Global().SetInfo("serve.registry.shadow_version", "");
  AppendAuditLocked("retire_shadow", retired->version, reason);
  return Status::Ok();
}

ModelLease ModelRegistry::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  ModelLease lease;
  lease.active = active_;
  lease.last_good = last_good_;
  lease.shadow = shadow_;
  lease.seq = seq_;
  return lease;
}

std::vector<RegistryAuditEvent> ModelRegistry::AuditTrail() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<RegistryAuditEvent>(audit_.begin(), audit_.end());
}

void ModelRegistry::AppendAuditLocked(std::string_view event,
                                      std::string_view version,
                                      std::string_view detail) {
  static constexpr size_t kAuditCapacity = 64;
  static constexpr size_t kAuditInfoTail = 8;
  RegistryAuditEvent entry;
  entry.seq = seq_;
  entry.event = std::string(event);
  entry.version = std::string(version);
  entry.detail = std::string(detail);
  audit_.push_back(std::move(entry));
  while (audit_.size() > kAuditCapacity) audit_.pop_front();
  // Mirror the tail into an info metric so the audit trail survives into
  // the metrics artifacts and statusz without a registry handle.
  std::string rendered;
  const size_t start =
      audit_.size() > kAuditInfoTail ? audit_.size() - kAuditInfoTail : 0;
  for (size_t i = start; i < audit_.size(); ++i) {
    const RegistryAuditEvent& e = audit_[i];
    if (!rendered.empty()) rendered += " | ";
    rendered += StrPrintf("#%llu %s %s",
                          static_cast<unsigned long long>(e.seq),
                          e.event.c_str(), e.version.c_str());
    if (!e.detail.empty()) rendered += " (" + e.detail + ")";
  }
  obs::MetricsRegistry::Global().SetInfo("serve.registry.audit", rendered);
}

void ModelRegistry::ExportActiveMetricsLocked() {
  obs::MetricsRegistry::Global().SetInfo("serve.registry.active_version",
                                         active_->version);
  // Shape of the active model's compiled inference form, for statusz and
  // dashboards (a registered model is fitted, so its forest is compiled).
  obs::MetricsRegistry::Global()
      .GetGauge("serve.registry.flat_nodes")
      .Set(static_cast<double>(active_->forest.flat()->num_nodes()));
}

std::shared_ptr<const ServingModel> ModelRegistry::Get(
    std::string_view version) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(version);
  return it == models_.end() ? nullptr : it->second;
}

std::vector<std::string> ModelRegistry::Versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> versions;
  versions.reserve(models_.size());
  for (const auto& [version, model] : models_) versions.push_back(version);
  return versions;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.size();
}

}  // namespace trajkit::serve
