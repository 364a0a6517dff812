// One pass of a workload. Replay workloads call serve::ReplayCorpus on the
// production wiring (untraced) or a line-for-line mirror of its loop that
// reads the clock once per call (traced); the live workload is an open
// loop of its own over the same public ServingPlane calls.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <queue>
#include <string_view>
#include <thread>

#include "common/flags.h"
#include "e2e.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "serve/replay.h"
#include "serve/serving_plane.h"
#include "store/trajectory_store.h"

namespace trajkit::e2e {

const char* const kPartMetric[kNumParts] = {
    "serve.replay.merge_s",      "serve.session.ingest_s",
    "serve.session.close_s",     "serve.replay.stage_s",
    "serve.plane.submit_s",      "serve.plane.flush_predictors_s",
    "serve.replay.drain_wait_s", "serve.ct.observe_s",
    "serve.ct.on_result_s",      "serve.ct.step_s",
    "serve.ct.finish_s",         "obs.tick_s",
    "store.ingest_s",            "live.sleep_s",
    "live.handoff_s",
};

namespace {

// micro_serve phase G's shed-ratio SLO.
constexpr const char* kShedSlo =
    "--slo_spec=shed:type=ratio,bad=serve.shed_total.queue_full+"
    "serve.shed_total.preempted,total=serve.batch_predictor.requests,"
    "budget=0.02,fast=4,slow=16";

serve::ServeConfig ParseConfig(const std::vector<std::string>& flags) {
  std::vector<std::string> args = {"serve-replay"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  const Flags parsed(static_cast<int>(argv.size()), argv.data());
  return OrDie(serve::ParseServeFlags(parsed, serve::ServeReplayDefaults()),
               "workload flags");
}

void CountFailure(const Status& status, size_t* shed, size_t* deadline,
                  size_t* errors) {
  if (status.code() == StatusCode::kResourceExhausted) {
    ++*shed;
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    ++*deadline;
  } else {
    ++*errors;
  }
}

/// Everything a replay pass wires up, built outside the timed call the way
/// `serve-replay` builds it: a fresh registry holding the set-up model, the
/// trainer (CT), the plane, the store sink and the telemetry ticks. The
/// plane's closed sink stamps each close; the store sink stamps each
/// delivery, which gives the close -> answer latency.
class ReplayStack {
 public:
  ReplayStack(const Env& env, const Workload& workload) : env_(env) {
    const serve::ServeConfig& config = workload.config;
    OrDie(registry_.Publish(env.model), "registry publish");
    serve::ServingPlaneOptions plane_options = config.MakePlaneOptions();
    options = config.MakeReplayOptions();
    if (config.ct.enabled) {
      trainer_.emplace(&registry_, env.labels, config.ct.MakeOptions());
      plane_options.batching.shadow_evaluator = &trainer_->evaluator();
      options.trainer = &*trainer_;
    }
    plane_.emplace(&registry_, plane_options);
    size_t points = 0;
    for (const traj::Trajectory& trajectory : env.corpus) {
      points += trajectory.points.size();
    }
    close_ns_.reserve(points / 8 + 1024);
    plane_->set_closed_sink(
        [this](const serve::ClosedSegment&) { close_ns_.push_back(NowNs()); });
    answer_ms_.reserve(close_ns_.capacity());
    options.closed_sink = [this](const serve::ClosedSegment& segment,
                                 int predicted_class) {
      const size_t index = deliveries_++;
      if (predicted_class >= 0 && index < close_ns_.size()) {
        answer_ms_.push_back(
            static_cast<double>(NowNs() - close_ns_[index]) * 1e-6);
      }
      const traj::Mode predicted = predicted_class >= 0
                                       ? env_.labels.ModeOf(predicted_class)
                                       : segment.mode;
      store_.Ingest(store::FromClosedSegment(segment, predicted));
    };
    if (config.telemetry_enabled()) {
      obs::TimeSeriesOptions ts_options;
      ts_options.capacity = config.timeseries_capacity;
      timeseries_.emplace(obs::MetricsRegistry::Global(), ts_options);
      for (const char* name :
           {"serve.sessions.points_ingested",
            "serve.sessions.segments_emitted",
            "serve.batch_predictor.requests", "serve.shed_total.queue_full",
            "serve.shed_total.preempted", "serve.deadline_exceeded_total",
            "serve.degraded_total.previous_model",
            "serve.degraded_total.majority_class"}) {
        timeseries_->TrackCounter(name);
      }
      slo_.emplace(&*timeseries_, &obs::MetricsRegistry::Global(),
                   config.slo_specs);
      options.tick_every_segments = config.tick_every;
      options.tick = [this] {
        timeseries_->Tick(static_cast<double>(tick_index_));
        slo_->Evaluate(tick_index_);
        ++tick_index_;
      };
    }
  }

  ReplayStack(const ReplayStack&) = delete;
  ReplayStack& operator=(const ReplayStack&) = delete;

  serve::ServingPlane& plane() { return *plane_; }

  /// Copies the stack's counters into `out`; with `keep_rows`, also every
  /// request's feature row and answered class, read back from the store.
  void Collect(bool keep_rows, PassResult* out) {
    out->session = plane_->session_stats();
    out->batch = plane_->predictor_counters();
    if (trainer_.has_value()) out->training = trainer_->stats();
    out->ticks = tick_index_;
    out->close_stamps = close_ns_.size();
    out->deliveries = deliveries_;
    out->answer_ms = std::move(answer_ms_);
    if (!keep_rows) return;
    for (uint32_t id = 0; id < store_.size(); ++id) {
      store::StoredSegment segment = store_.Segment(id);
      if (env_.labels.ClassOf(segment.true_mode) < 0) continue;
      out->rows.push_back(std::move(segment.features));
      out->row_labels.push_back(env_.labels.ClassOf(segment.predicted_mode));
    }
  }

  serve::ReplayOptions options;

 private:
  const Env& env_;
  // Declaration order is teardown order reversed: the plane's predictors
  // score into the trainer's evaluator, and both read the registry.
  serve::ModelRegistry registry_;
  std::optional<serve::ContinuousTrainer> trainer_;
  std::optional<serve::ServingPlane> plane_;
  store::TrajectoryStore store_;
  std::optional<obs::TimeSeriesStore> timeseries_;
  std::optional<obs::SloEngine> slo_;
  uint64_t tick_index_ = 0;
  std::vector<int64_t> close_ns_;
  size_t deliveries_ = 0;
  std::vector<double> answer_ms_;
};

/// serve/replay.cc's ReplayCorpus loop over the same public calls, with one
/// clock read after each call. The `serve-replay` wiring never sets a
/// retry budget, deadline or evict interval, so those branches are left
/// out; a request that fails is counted rather than aborting the pass.
void TracedReplay(const Env& env, serve::ServingPlane& plane,
                  const serve::ReplayOptions& options, size_t trace_spans,
                  PassResult* out) {
  PassTracer& tracer = out->trace;
  tracer.Start(trace_spans);
  const std::vector<MergedPoint> merged = MergeByTimestamp(env.corpus);
  tracer.Charge(kMerge);

  struct InFlight {
    int true_class = -1;
    int64_t request = -1;
    ptrdiff_t staged = -1;
    std::future<Result<serve::Prediction>> future;
  };
  std::vector<serve::ClosedSegment> closed;
  std::vector<InFlight> in_flight;
  std::vector<serve::ClosedSegment> staged;
  std::vector<int> staged_pred;
  const auto submit_closed = [&] {
    for (serve::ClosedSegment& segment : closed) {
      const auto request = static_cast<int64_t>(out->segments_closed++);
      ptrdiff_t staged_index = -1;
      if (options.closed_sink) {
        staged_index = static_cast<ptrdiff_t>(staged.size());
        staged.push_back(segment);
        staged_pred.push_back(-1);
        tracer.Charge(kStage, request);
      }
      const int true_class = env.labels.ClassOf(segment.mode);
      if (true_class < 0) {
        ++out->outside_label_set;
        continue;
      }
      if (options.trainer != nullptr) {
        options.trainer->ObserveSegment(segment, true_class);
        tracer.Charge(kCtObserve, request);
      }
      InFlight item;
      item.true_class = true_class;
      item.request = request;
      item.staged = staged_index;
      serve::RequestContext context;
      context.trace_id = segment.trace_id;
      item.future = plane.Submit(
          segment.user_id,
          serve::PredictRequest(std::move(segment.features), context));
      tracer.Charge(kSubmit, request);
      ++out->submitted;
      in_flight.push_back(std::move(item));
    }
    closed.clear();
  };
  const auto drain = [&] {
    std::vector<InFlight> round = std::move(in_flight);
    in_flight.clear();
    if (round.empty()) return;
    plane.FlushPredictors();
    tracer.Charge(kFlushPredictors);
    for (InFlight& item : round) {
      const Result<serve::Prediction> result = item.future.get();
      tracer.Charge(kDrainWait, item.request);
      if (!result.ok()) {
        CountFailure(result.status(), &out->shed, &out->deadline_exceeded,
                     &out->errors);
        continue;
      }
      const serve::Prediction& prediction = result.value();
      ++out->evaluated;
      if (prediction.label == item.true_class) ++out->correct;
      DigestAdd(&out->digest, item.true_class, prediction.label);
      out->enqueue_to_answer_ms.push_back(prediction.latency_seconds * 1e3);
      if (item.staged >= 0) staged_pred[item.staged] = prediction.label;
      if (options.trainer != nullptr) {
        options.trainer->OnResult(item.true_class, prediction);
        tracer.Charge(kCtOnResult, item.request);
      }
    }
  };

  size_t next_tick = options.tick && options.tick_every_segments > 0
                         ? options.tick_every_segments
                         : 0;
  for (const MergedPoint& at : merged) {
    const traj::Trajectory& trajectory = env.corpus[at.trajectory];
    plane.Ingest(trajectory.user_id, trajectory.points[at.point], &closed);
    ++out->points;
    if (closed.empty()) {
      tracer.Charge(kIngest);
    } else {
      tracer.Charge(kClose, static_cast<int64_t>(out->segments_closed));
      submit_closed();
    }
    if (options.trainer != nullptr && options.trainer->StepDue()) {
      drain();
      OrDie(options.trainer->Step(), "trainer step");
      tracer.Charge(kCtStep);
    }
    while (next_tick > 0 && out->segments_closed >= next_tick) {
      drain();
      options.tick();
      tracer.Charge(kTick);
      next_tick += options.tick_every_segments;
    }
  }
  plane.FlushAll(&closed);
  tracer.Charge(kClose, static_cast<int64_t>(out->segments_closed));
  submit_closed();
  drain();
  if (options.trainer != nullptr) {
    OrDie(options.trainer->Finish(), "trainer finish");
    tracer.Charge(kCtFinish);
  }
  if (options.tick) {
    options.tick();
    tracer.Charge(kTick);
  }
  if (options.closed_sink) {
    for (size_t i = 0; i < staged.size(); ++i) {
      options.closed_sink(staged[i], staged_pred[i]);
      tracer.Charge(kStoreIngest, static_cast<int64_t>(i));
    }
  }
  out->wall_s = tracer.Finish();
}

/// The live workload's client side: takes each submitted request's future
/// in submission order, waits for it, and stamps the answer.
class Harvester {
 public:
  struct Item {
    std::future<Result<serve::Prediction>> future;
    int64_t due_ns = 0;
    int true_class = -1;
  };

  explicit Harvester(bool keep_labels)
      : keep_labels_(keep_labels), thread_([this] { Loop(); }) {}
  ~Harvester() { Finish(); }

  Harvester(const Harvester&) = delete;
  Harvester& operator=(const Harvester&) = delete;

  void Push(Item item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(item));
    }
    cv_.notify_one();
  }

  /// Harvests everything pushed so far, then joins the thread.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  /// Moves the harvest into `out`. Only after Finish().
  void Collect(PassResult* out) {
    out->evaluated = harvest_.evaluated;
    out->correct = harvest_.correct;
    out->shed = harvest_.shed;
    out->deadline_exceeded = harvest_.deadline_exceeded;
    out->errors = harvest_.errors;
    out->digest = harvest_.digest;
    out->answer_ms = std::move(harvest_.answer_ms);
    out->enqueue_to_answer_ms = std::move(harvest_.enqueue_ms);
    out->row_labels = std::move(harvest_.labels);
  }

 private:
  void Loop() {
    while (true) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      const Result<serve::Prediction> result = item.future.get();
      const int64_t answered_ns = NowNs();
      if (!result.ok()) {
        CountFailure(result.status(), &harvest_.shed,
                     &harvest_.deadline_exceeded, &harvest_.errors);
        if (keep_labels_) harvest_.labels.push_back(-1);
        continue;
      }
      const serve::Prediction& prediction = result.value();
      ++harvest_.evaluated;
      if (prediction.label == item.true_class) ++harvest_.correct;
      DigestAdd(&harvest_.digest, item.true_class, prediction.label);
      harvest_.answer_ms.push_back(
          static_cast<double>(answered_ns - item.due_ns) * 1e-6);
      harvest_.enqueue_ms.push_back(prediction.latency_seconds * 1e3);
      if (keep_labels_) harvest_.labels.push_back(prediction.label);
    }
  }

  struct Harvest {
    size_t evaluated = 0;
    size_t correct = 0;
    size_t shed = 0;
    size_t deadline_exceeded = 0;
    size_t errors = 0;
    uint64_t digest = kDigestSeed;
    std::vector<double> answer_ms;
    std::vector<double> enqueue_ms;
    std::vector<int> labels;
  };

  const bool keep_labels_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool done_ = false;
  Harvest harvest_;  // Written by the harvester thread only.
  std::thread thread_;
};

}  // namespace

std::vector<Workload> MakeWorkloads() {
  // ct bounds its refit buffer: with the default 4096, which a pass never
  // fills, every refit fits on all labeled segments seen so far, so refit
  // work grows with the square of a seed's segment count and the seeds'
  // throughput spread 23%. With 512 it grows linearly.
  return {
      {"trips", ParseConfig({kShedSlo}), /*live=*/false},
      {"windowed", ParseConfig({"--shards=2", "--max_window=32", kShedSlo}),
       /*live=*/false},
      {"ct",
       ParseConfig({"--continuous_training", "--ct_buffer=512", kShedSlo}),
       /*live=*/false},
      {"live", ParseConfig({"--max_window=32"}), /*live=*/true},
  };
}

std::vector<MergedPoint> MergeByTimestamp(
    const std::vector<traj::Trajectory>& corpus) {
  struct Cursor {
    double timestamp;
    uint32_t trajectory;
    uint32_t point;
  };
  const auto later = [](const Cursor& a, const Cursor& b) {
    if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
    return a.trajectory > b.trajectory;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(later)> merge(
      later);
  size_t total = 0;
  for (size_t t = 0; t < corpus.size(); ++t) {
    total += corpus[t].points.size();
    if (!corpus[t].points.empty()) {
      merge.push(Cursor{corpus[t].points[0].timestamp,
                        static_cast<uint32_t>(t), 0});
    }
  }
  std::vector<MergedPoint> merged;
  merged.reserve(total);
  while (!merge.empty()) {
    const Cursor cursor = merge.top();
    merge.pop();
    merged.push_back(MergedPoint{cursor.trajectory, cursor.point});
    const std::vector<traj::TrajectoryPoint>& points =
        corpus[cursor.trajectory].points;
    if (cursor.point + 1 < points.size()) {
      merge.push(Cursor{points[cursor.point + 1].timestamp, cursor.trajectory,
                        cursor.point + 1});
    }
  }
  return merged;
}

double PassTracer::total_seconds() const {
  double total = 0.0;
  for (const double seconds : seconds_) total += seconds;
  return total;
}

bool PassTracer::WriteChromeTrace(const std::string& path,
                                  const std::string& workload) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const auto us = [this](int64_t ns) {
    return static_cast<double>(ns - start_ns_) * 1e-3;
  };
  std::fprintf(file,
               "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":"
               "\"%s\"},\"traceEvents\":[\n"
               "{\"name\":\"pass\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,"
               "\"tid\":1,\"ts\":0,\"dur\":%.3f}",
               workload.c_str(), us(end_ns_));
  for (const Span& span : spans_) {
    // Span name = metric name without its "_s" unit suffix.
    const std::string_view metric = kPartMetric[span.part];
    const std::string_view name = metric.substr(0, metric.size() - 2);
    const std::string_view category = name.substr(0, name.rfind('.'));
    std::fprintf(file,
                 ",\n{\"name\":\"%.*s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<int>(category.size()), category.data(),
                 us(span.start_ns), us(span.end_ns) - us(span.start_ns));
    if (span.request >= 0) {
      std::fprintf(file, "\"request\":%lld,",
                   static_cast<long long>(span.request));
    }
    std::fprintf(file, "\"calls\":%u}}", span.count);
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

PassResult RunReplayPass(const Env& env, const Workload& workload,
                         size_t trace_spans, bool keep_rows) {
  PassResult out;
  ReplayStack stack(env, workload);
  if (trace_spans > 0) {
    TracedReplay(env, stack.plane(), stack.options, trace_spans, &out);
  } else {
    const int64_t start = NowNs();
    const serve::ReplayReport report =
        OrDie(serve::ReplayCorpus(env.corpus, env.labels, stack.plane(),
                                  stack.options),
              "replay");
    out.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
    out.points = report.points;
    out.segments_closed = report.segments_closed;
    out.outside_label_set = report.segments_outside_label_set;
    out.submitted = report.segments_closed - report.segments_outside_label_set;
    out.evaluated = report.segments_evaluated;
    out.correct = report.correct;
    out.shed = report.shed;
    out.deadline_exceeded = report.deadline_exceeded;
    for (size_t i = 0; i < report.y_true.size(); ++i) {
      DigestAdd(&out.digest, report.y_true[i], report.y_pred[i]);
    }
  }
  stack.Collect(keep_rows, &out);
  return out;
}

PassResult RunLivePass(const Env& env, const Workload& workload,
                       size_t trace_spans, bool keep_rows) {
  PassResult out;
  serve::ModelRegistry registry;
  OrDie(registry.Publish(env.model), "registry publish");
  serve::ServingPlane plane(&registry, workload.config.MakePlaneOptions());
  Harvester harvester(keep_rows);
  PassTracer* tracer = trace_spans > 0 ? &out.trace : nullptr;

  const std::vector<MergedPoint>& schedule = env.schedule;
  const size_t n = schedule.size();
  const double period_ns = 1e9 / kLivePointsPerSecond;
  if (tracer != nullptr) tracer->Start(trace_spans);
  const int64_t start = tracer != nullptr ? tracer->last_ns() : NowNs();
  const auto due_ns = [start, period_ns](size_t i) {
    return start + static_cast<int64_t>(static_cast<double>(i) * period_ns);
  };

  std::vector<serve::ClosedSegment> closed;
  const auto submit_closed = [&](int64_t close_due_ns) {
    for (serve::ClosedSegment& segment : closed) {
      const auto request = static_cast<int64_t>(out.segments_closed++);
      const int true_class = env.labels.ClassOf(segment.mode);
      if (true_class < 0) {
        ++out.outside_label_set;
        continue;
      }
      if (keep_rows) out.rows.push_back(segment.features);
      std::future<Result<serve::Prediction>> future = plane.Submit(
          segment.user_id, serve::PredictRequest(std::move(segment.features)));
      if (tracer != nullptr) tracer->Charge(kSubmit, request);
      ++out.submitted;
      harvester.Push(Harvester::Item{std::move(future), close_due_ns,
                                     true_class});
      if (tracer != nullptr) tracer->Charge(kHandoff, request);
    }
    closed.clear();
  };

  // Ingest every point due by the last clock read, then sleep until the
  // next one is due. The generator never spins: a spinning thread would
  // take the core the predictor needs.
  size_t next = 0;
  while (next < n) {
    const int64_t now = tracer != nullptr ? tracer->last_ns() : NowNs();
    const size_t due_count = std::min(
        n, static_cast<size_t>(static_cast<double>(now - start) / period_ns) +
               1);
    if (due_count <= next) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::nanoseconds(due_ns(next)))));
      if (tracer != nullptr) tracer->Charge(kSleep);
      continue;
    }
    out.backlog_max_points = std::max(out.backlog_max_points, due_count - next);
    for (; next < due_count; ++next) {
      const traj::Trajectory& trajectory =
          env.corpus[schedule[next].trajectory];
      if (tracer != nullptr) {
        out.gen_late_ms.push_back(
            static_cast<double>(tracer->last_ns() - due_ns(next)) * 1e-6);
      }
      plane.Ingest(trajectory.user_id,
                   trajectory.points[schedule[next].point], &closed);
      ++out.points;
      if (tracer != nullptr) {
        tracer->Charge(closed.empty() ? kIngest : kClose,
                       closed.empty()
                           ? -1
                           : static_cast<int64_t>(out.segments_closed));
      }
      if (!closed.empty()) submit_closed(due_ns(next));
    }
  }
  plane.FlushAll(&closed);
  if (tracer != nullptr) {
    tracer->Charge(kClose, static_cast<int64_t>(out.segments_closed));
  }
  submit_closed(due_ns(n));
  plane.FlushPredictors();
  if (tracer != nullptr) tracer->Charge(kFlushPredictors);
  harvester.Finish();
  if (tracer != nullptr) tracer->Charge(kDrainWait);
  out.wall_s = tracer != nullptr
                   ? tracer->Finish()
                   : static_cast<double>(NowNs() - start) * 1e-9;

  harvester.Collect(&out);
  out.session = plane.session_stats();
  out.batch = plane.predictor_counters();
  return out;
}

}  // namespace trajkit::e2e
