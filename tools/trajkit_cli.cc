// trajkit — command-line front end for the library's end-to-end workflow:
//
//   trajkit generate  --out=DIR [--users=N] [--days=D] [--seed=S]
//       Synthesize a GeoLife-like corpus and write it in the real GeoLife
//       directory layout (<out>/<user>/Trajectory/*.plt + labels.txt).
//
//   trajkit features  (--data=DIR | --synthetic) --out=FILE.csv
//                     [--labels=dabiri|endo|all] [--extended]
//                     [--windows=SECONDS] [--denoise]
//       Run the paper's pipeline (steps 1-3, optionally 6) and write the
//       feature matrix as CSV (with __label/__group columns).
//
//   trajkit train     --dataset=FILE.csv --model=FILE.model
//                     [--trees=50] [--balanced] [--seed=S]
//       Train a random forest on a feature CSV and save it.
//
//   trajkit evaluate  --dataset=FILE.csv [--classifier=random_forest]
//                     [--scheme=random|stratified|user|temporal]
//                     [--folds=5]
//                     [--scale=1.0] [--seed=S]
//       Cross-validated evaluation with a full classification report.
//       --folds must lie in [2, samples] (for `user`, [2, distinct
//       users]; for `temporal`, [2, samples - 1]); else it exits 2.
//
//   trajkit predict   --dataset=FILE.csv --model=FILE.model
//                     [--output=FILE.csv]
//       Load a saved forest, predict, and (when labels are present)
//       report accuracy and a confusion matrix. --output writes every
//       prediction (sample id, class, per-class probabilities) as CSV;
//       stdout keeps a short preview.
//
//   trajkit serve-replay  (--data=DIR | --synthetic) --model=FILE.model
//                     [--labels=dabiri|endo|all] [--batch=64]
//                     [--gap=SECONDS]
//                     [--max_window=N] [--shards=1]
//                     [--subset=FILE.csv --method=importance --top_k=20]
//                     [--deadline_ms=D] [--max_queue=N] [--retries=R]
//                     [--fault_spec=SPEC]
//                     [--continuous_training [--step_every=16]
//                      [--refit_every=48] [--min_fit=48] [--min_shadow=32]
//                      [--promote_epsilon=E] [--cost_budget=R]
//                      [--ct_trees=T] [--ct_seed=S] [--ct_buffer=N]
//                      [--drift_window=N] [--drift_threshold=SIGMAS]
//                      [--drift_degraded_rate=F]]
//                     [--metrics_json=FILE] [--metrics_prom=FILE]
//                     [--timeseries_json=FILE] [--tick_every=64]
//                     [--timeseries_capacity=512] [--slo_spec=SPEC]
//                     [--http_port=P [--http_linger]]
//                     [--trace_json=FILE] [--trace_test=FILE]
//                     [--trace_sample=N] [--trace_buffer=M]
//                     [--store_out=FILE] [--predictions_out=FILE]
//       Replay a corpus through the online serving stack (sessions keep
//       leg columns -> the 70 features at segment close -> micro-batched
//       prediction; serve/serving_stack.h) in
//       global timestamp order and compare the accuracy against the
//       offline pipeline on identically-segmented data. --shards=N routes
//       users onto N independent serving shards (sessions + micro-batch
//       queue per shard, hash(user_id) routing); the replay output is
//       byte-identical at any thread or shard count, which the CI
//       determinism matrix enforces. --predictions_out writes the per-segment
//       true/predicted classes (close order) as CSV — the artifact that
//       matrix diffs. --deadline_ms
//       attaches a per-request deadline, --max_queue bounds the predictor
//       queue (admission control sheds lowest-priority first), --retries
//       grants each request a resubmission budget for transient failures,
//       and --fault_spec injects deterministic chaos, e.g.
//       "swap_stall:p=0.01,latency_ms=50;predict_fail:p=0.02;seed=1" (see
//       serve/fault_injector.h). Every submitted request is accounted
//       exactly once: evaluated (possibly degraded), shed, or
//       deadline-exceeded — the command fails if the books don't balance.
//       --metrics_json / --metrics_prom dump the process metrics registry
//       (batch latency p50/p90/p99, shed/degraded/deadline counters,
//       session counters, active model version, pool stats) as JSON or
//       Prometheus text. --trace_json enables request-scoped tracing and
//       dumps the flight recorder as Chrome trace-event JSON (load in
//       chrome://tracing or Perfetto); --trace_test writes the
//       deterministic rank-timestamp dump, --trace_sample=N head-samples
//       every Nth request (bad outcomes are always tail-kept), and
//       --trace_buffer=M sizes the per-thread ring (events).
//       The live telemetry plane samples the registry into ring-buffered
//       time series at replay barriers — one tick per --tick_every closed
//       segments (ring capacity --timeseries_capacity), so the sampled
//       history is byte-identical at any thread/shard count.
//       --timeseries_json dumps the rings; --slo_spec declares burn-rate
//       objectives over them (obs/slo.h grammar, e.g.
//       "shed:type=ratio,bad=serve.shed_total.queue_full,
//       total=serve.batch_predictor.requests,budget=0.02") whose
//       ok<->breach transitions are logged and exported as slo.* metrics.
//       --http_port=P serves /metrics, /metrics.json, /timeseries.json,
//       /statusz, /healthz, /tracez live on 127.0.0.1:P while the replay
//       runs (0 picks a free port); --http_linger keeps serving the
//       frozen post-run snapshot until GET /quitquitquit.
//       --store_out=FILE persists every closed segment (with its resolved
//       prediction) as a trajectory-store segment log for `trajkit query`.
//       The store ingests each segment at the first replay barrier after
//       its answer resolves (a tick, a trainer step, or at most 1024
//       closes later) and the log is written when the replay ends.
//       --continuous_training closes the loop (serve/continuous_training.h):
//       labeled closed segments feed background refits, candidates score
//       in the registry's shadow slot on the live batches (never served),
//       and the promotion policy (--promote_epsilon accuracy delta over a
//       --min_shadow labeled window, --cost_budget flat node-count ratio)
//       promotes or retires each one with an audit trail; drift
//       (--drift_window/--drift_threshold/--drift_degraded_rate) forces
//       early refits. Trainer steps run only at drained replay barriers,
//       so the output stays byte-identical at any thread/shard count; the
//       offline-parity check is skipped (the serving model evolves
//       mid-replay). All serving flags parse through one validated
//       surface (serve/serve_config.h): bad values or a CT flag without
//       --continuous_training fail naming the offending flag.
//
//   trajkit query     --store=FILE [--bbox=MINLAT,MINLON,MAXLAT,MAXLON]
//                     [--time=BEGIN,END] [--mode=walk,bus,...]
//                     [--user=ID] [--hotspots=CELL_DEG] [--k=10]
//                     [--oracle] [--limit=20]
//       Answer spatio-temporal queries over a trajectory store written by
//       `serve-replay --store_out` (src/store/): the default is a
//       bbox/time/mode scan through the bulk-loaded spatial index,
//       --user lists one user's history, and --hotspots aggregates the
//       top-k cells of a uniform CELL_DEG-degree grid (CELL_DEG finite
//       and >= 1e-9, else it exits 2). --oracle re-runs
//       the query through the brute-force scan and fails unless both
//       answers are byte-identical.
//
//   trajkit statusz   [--users=N] [--days=D] [--seed=S] [--trees=T]
//                     [--shards=2]
//                     [--batch=..] [--deadline_ms=..] [--max_queue=..]
//                     [--retries=..] [--fault_spec=SPEC | --fault_spec=]
//                     [--slo_spec=SPEC | --slo_spec=]
//                     [--http_port=P [--http_linger]]
//                     [--continuous_training [--step_every=..] ...]
//                     [--metrics_json/--metrics_prom/--trace_json/...]
//       Self-contained serving demo that prints the text status page:
//       train a small forest on a synthetic corpus, replay it through the
//       serve-replay stack (chaos on by default so every section is
//       populated; --fault_spec= turns it off), then render active model
//       version, queue depth, shed/degraded/fault counters, latency
//       quantiles with exemplar trace ids, and the last tail-kept traces.
//       With --continuous_training (same flag family as serve-replay) the
//       page adds the shadow-scoring, continuous-training, and
//       registry-audit sections. Every section always renders — subsystems
//       that emitted nothing show "(no data)". --slo_spec defaults to a
//       latency+shed demo spec that arms the telemetry plane, so the slo
//       section and sparklines render too; --slo_spec= turns both off
//       (unless --http_port, honoured with --http_linger as in
//       serve-replay, keeps the telemetry plane on).
//
// Every command also accepts --threads=N to bound the shared worker pool
// (default: TRAJKIT_THREADS env var, else hardware concurrency). Results
// are bit-identical at any thread count. A numeric flag whose value does
// not parse as its type or does not fit it (--folds=abc,
// --folds=4294967298) exits 2 naming the flag.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/flags.h"
#include "common/harness_options.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/experiments.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "geolife/geolife_reader.h"
#include "ml/crossval.h"
#include "ml/dataset_io.h"
#include "ml/factory.h"
#include "ml/metrics.h"
#include "ml/model_io.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/serve_config.h"
#include "serve/serving_stack.h"
#include "store/trajectory_store.h"
#include "synthgeo/generator.h"
#include "traj/trajectory_features.h"

namespace trajkit {
namespace {

constexpr char kUsage[] =
    "usage: trajkit "
    "<generate|features|train|evaluate|predict|serve-replay|query|statusz> "
    "[--flags]\n"
    "run `trajkit <command> --help` or see the file header for details\n";

int Fail(const Status& status, const char* what) {
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  return 1;
}

/// 2 after naming the first numeric flag whose value did not parse or fit
/// its type (Flags::status), else 0. Commands call it once they have read
/// their flags and before they act on them.
int RejectMalformedFlags(const Flags& flags) {
  if (flags.status().ok()) return 0;
  std::fprintf(stderr, "%s\n", flags.status().message().c_str());
  return 2;
}

synthgeo::GeneratorOptions GeneratorOptionsFromFlags(const Flags& flags) {
  synthgeo::GeneratorOptions options;
  options.num_users = flags.GetInt("users", 20);
  options.days_per_user = flags.GetInt("days", 4);
  options.seed = flags.GetUint64("seed", 7);
  return options;
}

Result<core::LabelSet> LabelSetFromFlags(const Flags& flags) {
  const std::string name = flags.GetString("labels", "dabiri");
  if (name == "dabiri") return core::LabelSet::Dabiri();
  if (name == "endo") return core::LabelSet::Endo();
  if (name == "all") return core::LabelSet::AllModes();
  return Status::InvalidArgument("unknown label set: '" + name +
                                 "' (want dabiri|endo|all)");
}

/// The corpus at --data (GeoLife layout), else a synthetic one.
Result<std::vector<traj::Trajectory>> LoadCorpus(
    const Flags& flags, const synthgeo::GeneratorOptions& synthetic) {
  const std::string data = flags.GetString("data", "");
  if (!data.empty()) return geolife::LoadGeoLifeCorpus(data);
  synthgeo::GeoLifeLikeGenerator generator(synthetic);
  std::vector<traj::Trajectory> corpus = generator.Generate();
  std::printf("(no --data; generated a synthetic corpus: %zu points)\n",
              generator.summary().total_points);
  return corpus;
}

int RunGenerate(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out=DIR is required\n");
    return 2;
  }
  const synthgeo::GeneratorOptions options = GeneratorOptionsFromFlags(flags);
  if (const int code = RejectMalformedFlags(flags)) return code;
  synthgeo::GeoLifeLikeGenerator generator(options);
  Stopwatch timer;
  const std::vector<traj::Trajectory> corpus = generator.Generate();
  const Status status = geolife::ExportGeoLifeCorpus(corpus, out);
  if (!status.ok()) return Fail(status, "export");
  std::printf("%s", generator.summary().ToString().c_str());
  std::printf("wrote %zu users to %s (%.1fs)\n", corpus.size(), out.c_str(),
              timer.ElapsedSeconds());
  return 0;
}

int RunFeatures(const Flags& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "features: --out=FILE.csv is required\n");
    return 2;
  }
  const synthgeo::GeneratorOptions synthetic = GeneratorOptionsFromFlags(flags);
  core::PipelineOptions options;
  options.remove_noise = flags.GetBool("denoise", false);
  options.include_extended_features = flags.GetBool("extended", false);
  if (flags.Has("windows")) {
    options.strategy = core::SegmentationStrategy::kFixedWindows;
    options.windows.window_seconds = flags.GetDouble("windows", 180.0);
  }
  if (const int code = RejectMalformedFlags(flags)) return code;

  auto corpus = LoadCorpus(flags, synthetic);
  if (!corpus.ok()) return Fail(corpus.status(), "GeoLife load");

  auto labels = LabelSetFromFlags(flags);
  if (!labels.ok()) return Fail(labels.status(), "label set");

  const core::Pipeline pipeline(options);
  auto dataset = pipeline.BuildDataset(corpus.value(), labels.value());
  if (!dataset.ok()) return Fail(dataset.status(), "pipeline");

  const Status status = ml::SaveDatasetCsv(dataset.value(), out);
  if (!status.ok()) return Fail(status, "CSV write");
  std::printf("wrote %zu segments x %zu features to %s\n",
              dataset->num_samples(), dataset->num_features(), out.c_str());
  return 0;
}

int RunTrain(const Flags& flags) {
  const std::string dataset_path = flags.GetString("dataset", "");
  const std::string model_path = flags.GetString("model", "");
  if (dataset_path.empty() || model_path.empty()) {
    std::fprintf(stderr,
                 "train: --dataset=FILE.csv and --model=FILE are required\n");
    return 2;
  }
  ml::RandomForestParams params;
  params.n_estimators = flags.GetInt("trees", 50);
  params.balanced_class_weights = flags.GetBool("balanced", false);
  params.seed = flags.GetUint64("seed", 42);
  if (const int code = RejectMalformedFlags(flags)) return code;

  auto dataset = ml::LoadDatasetCsv(dataset_path);
  if (!dataset.ok()) return Fail(dataset.status(), "dataset load");

  ml::RandomForest forest(params);
  Stopwatch timer;
  const Status fit = forest.Fit(dataset.value());
  if (!fit.ok()) return Fail(fit, "training");
  const Status save = ml::SaveRandomForest(forest, model_path);
  if (!save.ok()) return Fail(save, "model save");
  std::printf(
      "trained random forest (%d trees) on %zu samples in %.1fs -> %s\n",
      params.n_estimators, dataset->num_samples(), timer.ElapsedSeconds(),
      model_path.c_str());
  return 0;
}

int RunEvaluate(const Flags& flags) {
  const std::string dataset_path = flags.GetString("dataset", "");
  if (dataset_path.empty()) {
    std::fprintf(stderr, "evaluate: --dataset=FILE.csv is required\n");
    return 2;
  }
  auto dataset = ml::LoadDatasetCsv(dataset_path);
  if (!dataset.ok()) return Fail(dataset.status(), "dataset load");

  const std::string classifier_name =
      flags.GetString("classifier", "random_forest");
  auto model = ml::MakeClassifier(
      classifier_name,
      {.seed = flags.GetUint64("seed", 42),
       .scale = flags.GetDouble("scale", 1.0)});
  if (!model.ok()) return Fail(model.status(), "classifier");

  auto scheme = core::CvSchemeFromString(
      flags.GetString("scheme", "random"));
  if (!scheme.ok()) return Fail(scheme.status(), "scheme");
  const int folds = flags.GetInt("folds", 5);
  if (const int code = RejectMalformedFlags(flags)) return code;
  // MakeFolds CHECKs its fold count; a bad flag fails with a message.
  const size_t max_folds = core::MaxFolds(scheme.value(), dataset.value());
  if (folds < 2 || static_cast<size_t>(folds) > max_folds) {
    std::fprintf(stderr,
                 "evaluate: --folds=%d is outside [2, %zu] for --scheme=%s "
                 "on this dataset\n",
                 folds, max_folds,
                 std::string(core::CvSchemeToString(scheme.value())).c_str());
    return 2;
  }
  const auto cv_folds = core::MakeFolds(
      scheme.value(), dataset.value(), folds,
      flags.GetUint64("seed", 42));
  Stopwatch timer;
  const auto cv = ml::CrossValidate(*model.value(), dataset.value(),
                                    cv_folds);
  if (!cv.ok()) return Fail(cv.status(), "cross-validation");

  std::printf("%s, %s %d-fold CV on %zu samples (%.1fs)\n",
              classifier_name.c_str(),
              std::string(core::CvSchemeToString(scheme.value())).c_str(),
              folds, dataset->num_samples(), timer.ElapsedSeconds());
  std::printf("accuracy: %.4f ± %.4f   weighted F1: %.4f\n",
              cv->MeanAccuracy(), cv->StdAccuracy(), cv->MeanWeightedF1());
  std::printf("cohen's kappa: %.4f   balanced accuracy: %.4f\n",
              ml::CohensKappa(cv->pooled_true, cv->pooled_pred,
                              dataset->num_classes()),
              ml::BalancedAccuracy(cv->pooled_true, cv->pooled_pred,
                                   dataset->num_classes()));
  const ml::ClassificationReport report = ml::Evaluate(
      cv->pooled_true, cv->pooled_pred, dataset->num_classes());
  std::printf("%s", report.ToString(dataset->class_names()).c_str());
  return 0;
}

int RunPredict(const Flags& flags) {
  const std::string dataset_path = flags.GetString("dataset", "");
  const std::string model_path = flags.GetString("model", "");
  if (dataset_path.empty() || model_path.empty()) {
    std::fprintf(stderr,
                 "predict: --dataset=FILE.csv and --model=FILE are "
                 "required\n");
    return 2;
  }
  auto dataset = ml::LoadDatasetCsv(dataset_path);
  if (!dataset.ok()) return Fail(dataset.status(), "dataset load");
  auto forest = ml::LoadRandomForest(model_path);
  if (!forest.ok()) return Fail(forest.status(), "model load");
  // The forest reads its training width per row and names a class by
  // index into the CSV's class names, so both must fit the model.
  const size_t model_features = forest->FeatureImportances().size();
  if (dataset->num_features() != model_features) {
    std::fprintf(stderr,
                 "predict: %s has %zu features but the model was trained "
                 "on %zu\n",
                 dataset_path.c_str(), dataset->num_features(),
                 model_features);
    return 1;
  }
  if (static_cast<size_t>(forest->num_classes()) >
      dataset->class_names().size()) {
    std::fprintf(stderr,
                 "predict: the model predicts %d classes but %s names only "
                 "%zu\n",
                 forest->num_classes(), dataset_path.c_str(),
                 dataset->class_names().size());
    return 1;
  }

  std::vector<int> predictions;
  ml::Matrix probabilities;
  const Status predicted = forest->PredictWithProba(
      dataset->features(), &predictions, &probabilities);
  if (!predicted.ok()) return Fail(predicted, "predict");
  size_t shown = 0;
  for (size_t i = 0; i < predictions.size() && shown < 20; ++i, ++shown) {
    std::printf("sample %zu -> class %d\n", i, predictions[i]);
  }
  if (predictions.size() > 20) {
    std::printf("... (%zu predictions total)\n", predictions.size());
  }

  // --output writes the full prediction table (the stdout preview above is
  // capped at 20 rows).
  const std::string output = flags.GetString("output", "");
  if (!output.empty()) {
    CsvTable table;
    table.header = {"sample", "predicted_class", "predicted_label"};
    for (int c = 0; c < forest->num_classes(); ++c) {
      table.header.push_back("proba_" +
                             dataset->class_names()[static_cast<size_t>(c)]);
    }
    table.rows.reserve(predictions.size());
    for (size_t i = 0; i < predictions.size(); ++i) {
      std::vector<std::string> row;
      row.push_back(StrPrintf("%zu", i));
      row.push_back(StrPrintf("%d", predictions[i]));
      row.push_back(dataset->class_names()[
          static_cast<size_t>(predictions[i])]);
      for (const double p : probabilities.Row(i)) {
        row.push_back(StrPrintf("%.17g", p));
      }
      table.rows.push_back(std::move(row));
    }
    const Status write = WriteCsvFile(output, table);
    if (!write.ok()) return Fail(write, "prediction CSV write");
    std::printf("wrote all %zu predictions to %s\n", predictions.size(),
                output.c_str());
  }
  // When the CSV carries labels, report quality.
  const ml::ClassificationReport report = ml::Evaluate(
      dataset->labels(), predictions, dataset->num_classes());
  std::printf("\naccuracy vs. CSV labels: %.4f\n%s", report.accuracy,
              ml::ConfusionMatrix(dataset->labels(), predictions,
                                  dataset->num_classes())
                  .ToString(dataset->class_names())
                  .c_str());
  return 0;
}

/// Prints the bound port of the stack's HTTP server, if it runs. CI polls
/// this line, so it is flushed past any pipe buffering.
void PrintHttpPort(const serve::ServingStack& stack) {
  if (stack.http_port() < 0) return;
  std::printf("http: listening on 127.0.0.1:%d\n", stack.http_port());
  std::fflush(stdout);
}

/// Dumps the metric and trace artifacts (--metrics_json / --metrics_prom /
/// --timeseries_json / --trace_*, no-op for absent flags), then, with
/// --http_linger, serves that snapshot until /quitquitquit: a /metrics
/// scrape during the linger is byte-identical to the --metrics_prom file
/// (CI's scrape smoke checks). Returns false on a write failure.
bool DumpArtifactsAndLinger(const HarnessOptions& harness,
                            serve::ServingStack& stack) {
  const serve::ServingTelemetry* telemetry = stack.telemetry();
  if (!obs::WriteMetricsArtifacts(
          harness.MetricsArtifacts(
              telemetry != nullptr ? &telemetry->timeseries() : nullptr),
          obs::MetricsRegistry::Global())) {
    return false;
  }
  for (const std::string* path :
       {&harness.metrics_json, &harness.metrics_prom}) {
    if (!path->empty()) std::printf("metrics written to %s\n", path->c_str());
  }
  if (!harness.timeseries_json.empty()) {
    std::printf("timeseries written to %s\n",
                harness.timeseries_json.c_str());
  }
  if (!harness.DumpTrace()) return false;
  if (stack.lingers()) {
    std::printf("http: lingering on 127.0.0.1:%d until /quitquitquit\n",
                stack.http_port());
    std::fflush(stdout);
    stack.WaitForQuit();
    std::printf("http: quit requested\n");
  }
  return true;
}

int RunServeReplay(const Flags& flags) {
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) {
    std::fprintf(stderr, "serve-replay: --model=FILE.model is required\n");
    return 2;
  }
  auto config_or =
      serve::ParseServeFlags(flags, serve::ServeReplayDefaults());
  const int top_k = flags.GetInt("top_k", 20);
  if (const int code = RejectMalformedFlags(flags)) return code;
  if (!config_or.ok()) return Fail(config_or.status(), "serve flags");
  const serve::ServeConfig& config = config_or.value();

  // Tracing must be armed before the stack publishes the model so the
  // "registry_swap" landmark lands in the recorder.
  const HarnessOptions harness = HarnessOptions::FromFlags(flags);
  harness.ConfigureTracing();

  synthgeo::GeneratorOptions generator_options;
  generator_options.num_users = config.users;
  generator_options.days_per_user = config.days;
  generator_options.seed = config.seed;
  auto corpus_or = LoadCorpus(flags, generator_options);
  if (!corpus_or.ok()) return Fail(corpus_or.status(), "GeoLife load");
  const std::vector<traj::Trajectory>& corpus = corpus_or.value();

  auto labels = LabelSetFromFlags(flags);
  if (!labels.ok()) return Fail(labels.status(), "label set");

  auto forest = ml::LoadRandomForest(model_path);
  if (!forest.ok()) return Fail(forest.status(), "model load");

  // Optional Fig. 3 feature-subset mask: the forest was trained on the
  // top-k columns, requests carry the full 70-dim vector.
  std::vector<int> subset;
  const std::string subset_path = flags.GetString("subset", "");
  if (!subset_path.empty()) {
    auto loaded = serve::LoadFig3FeatureSubset(
        subset_path, flags.GetString("method", "importance"), top_k);
    if (!loaded.ok()) return Fail(loaded.status(), "feature subset");
    subset = std::move(loaded).value();
    std::printf("serving with a %zu-feature mask from %s\n", subset.size(),
                subset_path.c_str());
  }
  auto model = serve::MakeServingModel("replay-v1", std::move(forest).value(),
                                       traj::kNumTrajectoryFeatures, subset);
  if (!model.ok()) return Fail(model.status(), "serving model");

  // --store_out: persist every closed segment (keyed by its resolved
  // prediction; segments never predicted keep their annotated mode) as a
  // trajectory-store segment log the `query` subcommand reads back.
  const std::string store_out = flags.GetString("store_out", "");
  auto stack_or = serve::ServingStack::Build(
      config, harness, corpus, labels.value(), std::move(model).value(),
      /*keep_store=*/!store_out.empty());
  if (!stack_or.ok()) return Fail(stack_or.status(), "serving stack");
  serve::ServingStack& stack = *stack_or.value();
  if (config.fault_spec.has_value()) {
    std::printf("fault injection on: %s\n", config.fault_spec_text.c_str());
  }
  if (config.ct.enabled) {
    std::printf("continuous training on: refit every %zu labeled "
                "segments, promotion window %zu\n",
                config.ct.refit_every, config.ct.min_shadow);
  }
  const serve::ServingTelemetry* telemetry = stack.telemetry();
  if (telemetry != nullptr && telemetry->slo() != nullptr) {
    std::printf("slo engine on: %zu objectives, tick every %zu "
                "segments\n",
                telemetry->slo()->specs().size(), config.tick_every);
  }
  PrintHttpPort(stack);

  Stopwatch timer;
  auto report = stack.Replay();
  if (!report.ok()) return Fail(report.status(), "replay");
  const double total_seconds = timer.ElapsedSeconds();

  const serve::BatchPredictor::Counters counters =
      stack.plane().predictor_counters();
  std::printf(
      "replayed %zu points in %.2fs (%.0f points/s ingest, %zu shards)\n",
      report->points, total_seconds,
      report->ingest_seconds > 0.0
          ? static_cast<double>(report->points) / report->ingest_seconds
          : 0.0,
      stack.plane().num_shards());
  std::printf(
      "segments: %zu closed, %zu evaluated, %zu outside label set\n",
      report->segments_closed, report->segments_evaluated,
      report->segments_outside_label_set);
  std::printf("batches: %zu (mean %.1f, max %zu requests)\n",
              counters.batches,
              counters.batches > 0
                  ? static_cast<double>(counters.requests) /
                        static_cast<double>(counters.batches)
                  : 0.0,
              counters.max_batch);
  std::printf("online accuracy:  %.4f (%zu/%zu)\n", report->accuracy(),
              report->correct, report->segments_evaluated);

  // Lifecycle accounting: Replay() has already failed the command unless
  // every submitted request resolved exactly one way.
  std::printf(
      "lifecycle: %zu submitted = %zu evaluated (%zu degraded: "
      "previous_model=%zu, majority_class=%zu) + %zu shed "
      "+ %zu deadline-exceeded; %zu retries\n",
      report->segments_closed - report->segments_outside_label_set,
      report->segments_evaluated, report->degraded,
      report->degraded_previous_model, report->degraded_majority_class,
      report->shed, report->deadline_exceeded, report->retries);

  // Telemetry summary + SLO transition log: tick positions are corpus
  // positions, so (for SLOs over deterministic counters) every line here
  // is byte-identical at any thread/shard count — the CI telemetry
  // determinism leg diffs the "slo:" lines across t1/t8 x s1/s8.
  if (telemetry != nullptr) {
    const auto& timeseries = telemetry->timeseries();
    std::printf("telemetry: %zu ticks, %zu series (capacity %zu)\n",
                timeseries.tick_count(), timeseries.series_count(),
                timeseries.capacity());
  }
  if (telemetry != nullptr && telemetry->slo() != nullptr) {
    const auto& slo = *telemetry->slo();
    for (const std::string& line : slo.transition_log()) {
      std::printf("slo: %s\n", line.c_str());
    }
    for (const obs::SloState& state : slo.states()) {
      std::printf("slo: final %s %s burn_fast=%.6g burn_slow=%.6g "
                  "budget_remaining=%.6g transitions=%llu\n",
                  state.name.c_str(), state.breached ? "breach" : "ok",
                  state.burn_fast, state.burn_slow, state.budget_remaining,
                  static_cast<unsigned long long>(state.transitions));
    }
  }

  // Continuous-training summary: every number here is a deterministic
  // function of the corpus (the CI continuous-training matrix diffs this
  // line across thread/shard counts alongside the predictions CSV).
  if (const auto* trainer = stack.trainer()) {
    const auto& training = trainer->stats();
    const std::shared_ptr<const serve::ServingModel> active =
        stack.registry().Acquire().active;
    std::printf(
        "training: %zu steps, %zu refits (%zu completed, %zu failed), "
        "%zu shadows, %zu promotions, %zu rejections, %zu drift "
        "triggers; serving %s\n",
        training.steps, training.refits_launched,
        training.refits_completed, training.fit_failures,
        training.shadows_installed, training.promotions,
        training.rejections, training.drift_triggers,
        active != nullptr ? active->version.c_str() : "?");
  }

  if (store::TrajectoryStore* trajectory_store = stack.store()) {
    const Status status = trajectory_store->SaveTo(store_out);
    if (!status.ok()) return Fail(status, "store save");
    std::printf("store: %zu segments -> %s\n", trajectory_store->size(),
                store_out.c_str());
  }

  // --predictions_out: the per-segment true/predicted classes in close
  // order — a byte-comparable artifact of the CI determinism matrix
  // (identical at any --threads/--shards value).
  const std::string predictions_out = flags.GetString("predictions_out", "");
  if (!predictions_out.empty()) {
    CsvTable table;
    table.header = {"index", "true_class", "pred_class"};
    table.rows.reserve(report->y_true.size());
    for (size_t i = 0; i < report->y_true.size(); ++i) {
      table.rows.push_back({StrPrintf("%zu", i),
                            StrPrintf("%d", report->y_true[i]),
                            StrPrintf("%d", report->y_pred[i])});
    }
    const Status write = WriteCsvFile(predictions_out, table);
    if (!write.ok()) return Fail(write, "predictions CSV write");
    std::printf("predictions: %zu rows -> %s\n", table.rows.size(),
                predictions_out.c_str());
  }

  // The metrics/trace artifacts reflect the serving replay itself, so
  // dump them before the offline-comparison pipeline adds its own samples.
  if (!DumpArtifactsAndLinger(harness, stack)) return 1;

  // Offline comparison: the batch pipeline on the same corpus with the
  // same segmentation rules, predicted through the same serving model.
  // The max-window rule has no offline counterpart, so skip when set;
  // chaos / deadline / shedding runs are not comparable either (requests
  // may be answered degraded or not at all).
  if (config.max_window > 0) {
    std::printf("(--max_window set: offline comparison skipped — the "
                "max-window rule has no offline counterpart)\n");
    return 0;
  }
  if (config.fault_spec.has_value() || config.deadline_seconds > 0.0 ||
      config.max_queue > 0) {
    std::printf("(chaos/deadline/admission flags set: offline comparison "
                "skipped — online answers are intentionally degraded)\n");
    return 0;
  }
  if (config.ct.enabled) {
    std::printf("(--continuous_training set: offline comparison skipped — "
                "the serving model evolves mid-replay)\n");
    return 0;
  }
  core::PipelineOptions pipeline_options;
  pipeline_options.segmentation.max_gap_seconds = config.gap_seconds;
  const core::Pipeline pipeline(pipeline_options);
  auto dataset = pipeline.BuildDataset(corpus, labels.value());
  if (!dataset.ok()) return Fail(dataset.status(), "offline pipeline");
  const std::shared_ptr<const serve::ServingModel> active =
      stack.registry().Acquire().active;
  std::vector<std::vector<double>> rows(dataset->num_samples());
  for (size_t r = 0; r < dataset->num_samples(); ++r) {
    const std::span<const double> row = dataset->features().Row(r);
    rows[r].assign(row.begin(), row.end());
  }
  auto offline = active->PredictBatch(rows);
  if (!offline.ok()) return Fail(offline.status(), "offline predict");
  size_t offline_correct = 0;
  for (size_t r = 0; r < offline->size(); ++r) {
    if ((*offline)[r].label == dataset->labels()[r]) ++offline_correct;
  }
  const double offline_accuracy =
      dataset->num_samples() == 0
          ? 0.0
          : static_cast<double>(offline_correct) /
                static_cast<double>(dataset->num_samples());
  std::printf("offline accuracy: %.4f (%zu/%zu)\n", offline_accuracy,
              offline_correct, dataset->num_samples());
  if (report->segments_evaluated == dataset->num_samples() &&
      report->correct == offline_correct) {
    std::printf("online == offline: segment count and accuracy match\n");
  } else {
    std::printf("WARNING: online and offline disagree (%zu vs %zu "
                "segments, %zu vs %zu correct)\n",
                report->segments_evaluated, dataset->num_samples(),
                report->correct, offline_correct);
  }
  return 0;
}

/// Parses a comma-separated list of exactly `expected` doubles.
Result<std::vector<double>> ParseDoubleList(const std::string& text,
                                            size_t expected,
                                            const char* what) {
  std::vector<double> values;
  for (std::string_view field : SplitString(text, ',')) {
    auto value = ParseDouble(StripWhitespace(field));
    if (!value.ok()) return value.status();
    values.push_back(value.value());
  }
  if (values.size() != expected) {
    return Status::InvalidArgument(
        StrPrintf("%s wants %zu comma-separated numbers, got %zu", what,
                  expected, values.size()));
  }
  return values;
}

void PrintSegmentRows(const store::TrajectoryStore& trajectory_store,
                      const std::vector<uint32_t>& ids, size_t limit) {
  std::printf("  %8s %8s %6s %6s %10s %10s %14s %14s %7s\n", "id", "session",
              "user", "day", "pred", "true", "start", "end", "points");
  const size_t show = ids.size() < limit ? ids.size() : limit;
  for (size_t i = 0; i < show; ++i) {
    const store::StoredSegment segment = trajectory_store.Segment(ids[i]);
    std::printf("  %8u %8lld %6d %6lld %10s %10s %14.0f %14.0f %7u\n",
                ids[i], static_cast<long long>(segment.session_id),
                segment.user_id, static_cast<long long>(segment.day),
                std::string(traj::ModeToString(segment.predicted_mode))
                    .c_str(),
                std::string(traj::ModeToString(segment.true_mode)).c_str(),
                segment.start_time, segment.end_time, segment.num_points);
  }
  if (ids.size() > show) {
    std::printf("  ... and %zu more (raise --limit to see them)\n",
                ids.size() - show);
  }
}

/// `trajkit query`: the read side. Loads a segment log written by
/// `serve-replay --store_out` and answers one of the three query shapes;
/// --oracle cross-checks the indexed answer against the brute-force scan.
int RunQuery(const Flags& flags) {
  const std::string store_path = flags.GetString("store", "");
  if (store_path.empty()) {
    std::fprintf(stderr, "query: --store=FILE is required\n");
    return 2;
  }
  const double cell_deg = flags.GetDouble("hotspots", 0.01);
  const size_t limit = static_cast<size_t>(flags.GetInt("limit", 20));
  const int32_t user_id = flags.GetInt("user", 0);
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  if (const int code = RejectMalformedFlags(flags)) return code;
  if (!std::isfinite(cell_deg) || cell_deg < store::kMinHotspotCellDeg) {
    std::fprintf(stderr,
                 "query: --hotspots wants a finite cell size of at least "
                 "%g deg\n",
                 store::kMinHotspotCellDeg);
    return 2;
  }
  store::TimeRange time = store::TimeRange::All();
  if (flags.Has("time")) {
    auto values =
        ParseDoubleList(flags.GetString("time", ""), 2, "--time");
    if (!values.ok()) return Fail(values.status(), "time range");
    time.begin = values.value()[0];
    time.end = values.value()[1];
  }
  auto mask = store::ParseModeMask(flags.GetString("mode", ""));
  if (!mask.ok()) return Fail(mask.status(), "mode mask");
  const bool oracle = flags.Has("oracle");

  store::TrajectoryStore trajectory_store;
  {
    const Status status = trajectory_store.Load(store_path);
    if (!status.ok()) return Fail(status, "store load");
  }
  std::printf("store: %zu segments from %s\n", trajectory_store.size(),
              store_path.c_str());

  if (flags.Has("user")) {
    const std::vector<uint32_t> ids =
        trajectory_store.QueryUser(user_id, time);
    std::printf("user %d: %zu segments\n", user_id, ids.size());
    if (oracle &&
        ids != trajectory_store.QueryUserBruteForce(user_id, time)) {
      std::fprintf(stderr, "query: index disagrees with the oracle\n");
      return 1;
    }
    PrintSegmentRows(trajectory_store, ids, limit);
    if (oracle) std::printf("oracle check: identical\n");
    return 0;
  }

  if (flags.Has("hotspots")) {
    const std::vector<store::HotspotCell> cells =
        trajectory_store.TopKHotspots(cell_deg, k, mask.value());
    std::printf("top %zu hotspot cells (%.4f deg grid)\n", cells.size(),
                cell_deg);
    if (oracle && cells != trajectory_store.TopKHotspotsBruteForce(
                               cell_deg, k, mask.value())) {
      std::fprintf(stderr, "query: index disagrees with the oracle\n");
      return 1;
    }
    std::printf("  %8s %8s %8s  %s\n", "cell_lat", "cell_lon", "count",
                "bounds (lat, lon)");
    for (const store::HotspotCell& cell : cells) {
      std::printf("  %8lld %8lld %8llu  [%.4f, %.4f] x [%.4f, %.4f]\n",
                  static_cast<long long>(cell.cell_lat),
                  static_cast<long long>(cell.cell_lon),
                  static_cast<unsigned long long>(cell.count),
                  cell.bounds.min_lat, cell.bounds.max_lat,
                  cell.bounds.min_lon, cell.bounds.max_lon);
    }
    if (oracle) std::printf("oracle check: identical\n");
    return 0;
  }

  geo::BoundingBox box;
  box.Extend(geo::LatLon{-90.0, -180.0});
  box.Extend(geo::LatLon{90.0, 180.0});
  if (flags.Has("bbox")) {
    auto values =
        ParseDoubleList(flags.GetString("bbox", ""), 4, "--bbox");
    if (!values.ok()) return Fail(values.status(), "bbox");
    box = geo::BoundingBox();
    box.Extend(geo::LatLon{values.value()[0], values.value()[1]});
    box.Extend(geo::LatLon{values.value()[2], values.value()[3]});
  }
  const std::vector<uint32_t> ids =
      trajectory_store.QueryBBox(box, time, mask.value());
  std::printf("bbox [%.4f, %.4f] x [%.4f, %.4f]: %zu segments\n",
              box.min_lat, box.max_lat, box.min_lon, box.max_lon,
              ids.size());
  if (oracle &&
      ids != trajectory_store.QueryBBoxBruteForce(box, time, mask.value())) {
    std::fprintf(stderr, "query: index disagrees with the oracle\n");
    return 1;
  }
  PrintSegmentRows(trajectory_store, ids, limit);
  if (oracle) std::printf("oracle check: identical\n");
  const store::StoreStats stats = trajectory_store.stats();
  std::printf("index: %zu nodes, height %zu, %zu visited\n",
              stats.index_nodes, stats.index_height, stats.nodes_visited);
  return 0;
}

/// `trajkit statusz`: generate, train, replay through the serving stack
/// with StatuszDefaults() and print its status page, all in-process.
int RunStatusz(const Flags& flags) {
  // The flight recorder is always on for statusz — the page's "retained
  // traces" section is the point — honoring --trace_sample/--trace_buffer.
  const HarnessOptions harness = HarnessOptions::FromFlags(flags);
  harness.ConfigureTracing(/*always=*/true);

  auto config_or = serve::ParseServeFlags(flags, serve::StatuszDefaults());
  if (const int code = RejectMalformedFlags(flags)) return code;
  if (!config_or.ok()) return Fail(config_or.status(), "serve flags");
  const serve::ServeConfig& config = config_or.value();

  synthgeo::GeneratorOptions generator_options;
  generator_options.num_users = config.users;
  generator_options.days_per_user = config.days;
  generator_options.seed = config.seed;
  synthgeo::GeoLifeLikeGenerator generator(generator_options);
  const std::vector<traj::Trajectory> corpus = generator.Generate();

  auto labels = LabelSetFromFlags(flags);
  if (!labels.ok()) return Fail(labels.status(), "label set");

  const core::Pipeline pipeline{core::PipelineOptions{}};
  auto dataset = pipeline.BuildDataset(corpus, labels.value());
  if (!dataset.ok()) return Fail(dataset.status(), "pipeline");

  ml::RandomForestParams params;
  params.n_estimators = config.trees;
  params.seed = flags.GetUint64("seed", 42);
  ml::RandomForest forest(params);
  const Status fit = forest.Fit(dataset.value());
  if (!fit.ok()) return Fail(fit, "training");
  auto model = serve::MakeServingModel("statusz-v1", std::move(forest),
                                       traj::kNumTrajectoryFeatures, {});
  if (!model.ok()) return Fail(model.status(), "serving model");

  // The demo keeps a trajectory store so the page's store section renders
  // live numbers, and touches each query path once.
  auto stack_or = serve::ServingStack::Build(
      config, harness, corpus, labels.value(), std::move(model).value(),
      /*keep_store=*/true);
  if (!stack_or.ok()) return Fail(stack_or.status(), "serving stack");
  serve::ServingStack& stack = *stack_or.value();
  PrintHttpPort(stack);
  auto report = stack.Replay();
  if (!report.ok()) return Fail(report.status(), "replay");
  geo::BoundingBox everywhere;
  everywhere.Extend(geo::LatLon{-90.0, -180.0});
  everywhere.Extend(geo::LatLon{90.0, 180.0});
  (void)stack.store()->QueryBBox(everywhere);
  (void)stack.store()->TopKHotspots(/*cell_deg=*/0.01, /*k=*/5);

  std::printf("%s", stack.StatusPage().c_str());
  if (!DumpArtifactsAndLinger(harness, stack)) return 1;
  return 0;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  // Every command honors the shared harness trio (common/harness_options):
  // --threads=N bounds the worker pool (0/absent keeps the process
  // default, which itself honors the TRAJKIT_THREADS environment
  // variable); --metrics_json is read by the commands that dump metrics.
  const HarnessOptions harness = HarnessOptions::FromFlags(flags);
  if (const int code = RejectMalformedFlags(flags)) return code;
  harness.ApplyThreads();
  if (flags.positional().empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string& command = flags.positional().front();
  if (command == "generate") return RunGenerate(flags);
  if (command == "features") return RunFeatures(flags);
  if (command == "train") return RunTrain(flags);
  if (command == "evaluate") return RunEvaluate(flags);
  if (command == "predict") return RunPredict(flags);
  if (command == "serve-replay") return RunServeReplay(flags);
  if (command == "query") return RunQuery(flags);
  if (command == "statusz") return RunStatusz(flags);
  std::fprintf(stderr, "unknown command '%s'\n%s", command.c_str(), kUsage);
  return 2;
}

}  // namespace
}  // namespace trajkit

int main(int argc, char** argv) { return trajkit::Run(argc, argv); }
