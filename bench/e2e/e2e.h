#ifndef TRAJKIT_BENCH_E2E_E2E_H_
#define TRAJKIT_BENCH_E2E_E2E_H_

// Shared declarations of the end-to-end serving benchmark driver
// (bench/e2e/README.md). passes.cc runs one pass of a workload; the driver
// (trajkit_e2e.cc) sets up, repeats passes, checks outputs and reports.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/label_sets.h"
#include "serve/batch_predictor.h"
#include "serve/continuous_training.h"
#include "serve/model_registry.h"
#include "serve/serve_config.h"
#include "serve/session_manager.h"
#include "traj/types.h"

namespace trajkit::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exits the benchmark on a failed library call: set-up errors are not
/// measurements.
template <typename T>
T OrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "trajkit_e2e: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

inline void OrDie(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "trajkit_e2e: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

/// One workload: a `serve-replay` flag set plus how the benchmark drives
/// it. The flags go through serve::ParseServeFlags with the serve-replay
/// defaults, so the plane, batching, CT and telemetry options are exactly
/// what that command would build from them.
struct Workload {
  std::string name;
  serve::ServeConfig config;
  /// Open-loop paced ingest (RunLivePass, no sink) instead of
  /// serve::ReplayCorpus into a TrajectoryStore sink (serve-replay
  /// --store_out without the file).
  bool live = false;
};

/// The four workloads. Exits on a bad flag set.
std::vector<Workload> MakeWorkloads();

/// A point of the corpus in global replay order.
struct MergedPoint {
  uint32_t trajectory;
  uint32_t point;
};

/// serve::ReplayCorpus's k-way timestamp merge, materialised: earliest
/// timestamp first, ties by trajectory index, a trajectory's own order kept.
std::vector<MergedPoint> MergeByTimestamp(
    const std::vector<traj::Trajectory>& corpus);

/// Inputs every pass of a run shares.
struct Env {
  std::vector<traj::Trajectory> corpus;
  core::LabelSet labels = core::LabelSet::Dabiri();
  /// The set-up's published model (flat form compiled). Every pass
  /// publishes a copy into a fresh registry.
  serve::ServingModel model;
  /// Live workload only: the merged order, materialised once as the load
  /// generator's schedule.
  std::vector<MergedPoint> schedule;
};

/// Where a traced pass's driver-thread time went. Each clock read closes
/// the interval since the previous one and charges it to the call that
/// ended it.
enum Part {
  kMerge,
  kIngest,
  kClose,
  kStage,
  kSubmit,
  kFlushPredictors,
  kDrainWait,
  kCtObserve,
  kCtOnResult,
  kCtStep,
  kCtFinish,
  kTick,
  kStoreIngest,
  kSleep,
  kHandoff,
  kNumParts,
};

/// Metric name of each Part's summed seconds.
extern const char* const kPartMetric[kNumParts];

/// One Chrome-trace complete event. `request` is the segment's close index
/// (shared by every span of one request), -1 for spans of no request.
struct Span {
  int part;
  int64_t start_ns;
  int64_t end_ns;
  int64_t request;
  uint32_t count;
};

/// The traced pass's clock: one read per call, spans kept in memory.
/// Consecutive request-less spans of one part are coalesced (a run of
/// points that close nothing is one `serve.session.ingest` span).
class PassTracer {
 public:
  /// Starts the pass. Room for `expected_spans` is allocated and touched
  /// first: growing the span buffer inside the pass more than doubled the
  /// cost of a Charge (page faults and copies).
  void Start(size_t expected_spans) {
    spans_.resize(expected_spans);
    spans_.clear();
    start_ns_ = last_ns_ = NowNs();
  }
  /// Charges the time since the previous read to `part`.
  void Charge(Part part, int64_t request = -1) {
    const int64_t now = NowNs();
    seconds_[part] += static_cast<double>(now - last_ns_) * 1e-9;
    ++calls_[part];
    if (request < 0 && !spans_.empty() && spans_.back().part == part &&
        spans_.back().request < 0 && spans_.back().end_ns == last_ns_) {
      spans_.back().end_ns = now;
      ++spans_.back().count;
    } else {
      spans_.push_back(Span{part, last_ns_, now, request, 1});
    }
    last_ns_ = now;
  }
  /// Ends the pass; returns its wall seconds.
  double Finish() {
    end_ns_ = NowNs();
    return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
  }

  int64_t last_ns() const { return last_ns_; }
  double seconds(Part part) const { return seconds_[part]; }
  size_t calls(Part part) const { return calls_[part]; }
  double total_seconds() const;
  /// Writes the spans under a root `pass` span as Chrome trace JSON.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& workload) const;

 private:
  int64_t start_ns_ = 0;
  int64_t end_ns_ = 0;
  int64_t last_ns_ = 0;
  double seconds_[kNumParts] = {};
  size_t calls_[kNumParts] = {};
  std::vector<Span> spans_;
};

/// FNV-1a over (true class, predicted class) in close order: equal
/// digests mean equal answers to equal requests.
inline void DigestAdd(uint64_t* digest, int true_class, int label) {
  for (const int value : {true_class, label}) {
    for (int byte = 0; byte < 4; ++byte) {
      *digest ^= static_cast<uint64_t>((static_cast<uint32_t>(value) >>
                                        (8 * byte)) & 0xffu);
      *digest *= 0x100000001b3ull;
    }
  }
}
inline constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ull;

/// Everything one pass observed.
struct PassResult {
  double wall_s = 0.0;
  uint64_t digest = kDigestSeed;
  size_t points = 0;
  size_t segments_closed = 0;
  size_t outside_label_set = 0;
  size_t submitted = 0;
  size_t evaluated = 0;
  size_t correct = 0;
  size_t shed = 0;
  size_t deadline_exceeded = 0;
  size_t errors = 0;
  size_t ticks = 0;
  /// Replay: closes seen by the plane's closed sink, and segments the
  /// ReplayOptions::closed_sink delivered.
  size_t close_stamps = 0;
  size_t deliveries = 0;
  serve::SessionManagerStats session;
  serve::BatchPredictor::Counters batch;
  serve::ContinuousTrainer::Stats training;
  /// Close -> answer delivered, per answered request (replay: the plane's
  /// close to the store sink; live: the closing point's due time to the
  /// harvester).
  std::vector<double> answer_ms;
  /// Prediction::latency_seconds (enqueue -> answer); traced passes and
  /// live only.
  std::vector<double> enqueue_to_answer_ms;
  /// Request rows and the answered class, kept on request.
  std::vector<std::vector<double>> rows;
  std::vector<int> row_labels;
  /// Live only: how late the generator ingested each point (traced), and
  /// the most points ever due at one wake-up.
  std::vector<double> gen_late_ms;
  size_t backlog_max_points = 0;
  PassTracer trace;
};

/// One pass of a replay workload: serve::ReplayCorpus itself when
/// `trace_spans` is 0, else the traced line-for-line mirror of its loop
/// with room for that many spans. `keep_rows` keeps every request's
/// feature row and answer.
PassResult RunReplayPass(const Env& env, const Workload& workload,
                         size_t trace_spans, bool keep_rows);

/// One open-loop pass of the live workload at kLivePointsPerSecond;
/// arguments as for RunReplayPass.
PassResult RunLivePass(const Env& env, const Workload& workload,
                       size_t trace_spans, bool keep_rows);

inline constexpr double kLivePointsPerSecond = 400000.0;

}  // namespace trajkit::e2e

#endif  // TRAJKIT_BENCH_E2E_E2E_H_
