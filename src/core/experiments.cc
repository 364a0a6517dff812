#include "core/experiments.h"

#include <set>

#include "common/rng.h"

namespace trajkit::core {

Result<CvScheme> CvSchemeFromString(std::string_view name) {
  if (name == "random") return CvScheme::kRandom;
  if (name == "stratified") return CvScheme::kStratified;
  if (name == "user" || name == "user_oriented") {
    return CvScheme::kUserOriented;
  }
  if (name == "temporal") return CvScheme::kTemporal;
  return Status::InvalidArgument("unknown CV scheme: '" + std::string(name) +
                                 "'");
}

std::string_view CvSchemeToString(CvScheme scheme) {
  switch (scheme) {
    case CvScheme::kRandom:
      return "random";
    case CvScheme::kStratified:
      return "stratified";
    case CvScheme::kUserOriented:
      return "user_oriented";
    case CvScheme::kTemporal:
      return "temporal";
  }
  return "unknown";
}

size_t MaxFolds(CvScheme scheme, const ml::Dataset& dataset) {
  const size_t n = dataset.num_samples();
  switch (scheme) {
    case CvScheme::kUserOriented:
      return std::set<int>(dataset.groups().begin(), dataset.groups().end())
          .size();
    case CvScheme::kTemporal:
      if (dataset.has_times()) return n == 0 ? 0 : n - 1;
      return n;
    case CvScheme::kRandom:
    case CvScheme::kStratified:
      return n;
  }
  return 0;
}

std::vector<ml::FoldSplit> MakeFolds(CvScheme scheme,
                                     const ml::Dataset& dataset, int k,
                                     uint64_t seed) {
  Rng rng(seed);
  switch (scheme) {
    case CvScheme::kRandom:
      return ml::KFold(dataset.num_samples(), k, rng);
    case CvScheme::kStratified:
      return ml::StratifiedKFold(dataset.labels(), k, rng);
    case CvScheme::kUserOriented:
      return ml::GroupKFold(dataset.groups(), k, rng);
    case CvScheme::kTemporal:
      if (!dataset.has_times()) {
        return ml::KFold(dataset.num_samples(), k, rng);
      }
      return ml::TemporalKFold(dataset.times(), k);
  }
  return {};
}

Result<SyntheticDatasetResult> BuildSyntheticDataset(
    const synthgeo::GeneratorOptions& generator_options,
    const PipelineOptions& pipeline_options, const LabelSet& labels) {
  synthgeo::GeoLifeLikeGenerator generator(generator_options);
  const std::vector<traj::Trajectory> corpus = generator.Generate();
  const Pipeline pipeline(pipeline_options);
  TRAJKIT_ASSIGN_OR_RETURN(ml::Dataset dataset,
                           pipeline.BuildDataset(corpus, labels));
  SyntheticDatasetResult out{std::move(dataset), generator.summary(),
                             pipeline.stats()};
  return out;
}

}  // namespace trajkit::core
