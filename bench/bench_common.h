#ifndef TRAJKIT_BENCH_BENCH_COMMON_H_
#define TRAJKIT_BENCH_BENCH_COMMON_H_

// Shared plumbing of the experiment harnesses: a tiny --flag=value parser,
// the corpus knobs every experiment accepts, and the --timing_json
// machine-readable timing emitter. The harness-wide trio
// --threads/--timing_json/--metrics_json is parsed by the shared
// common/harness_options.h so every harness, microbenchmark, and the CLI
// spell them identically. Harnesses are plain executables that print the
// paper's rows; microbenchmarks (micro_*.cc) use google-benchmark instead.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/harness_options.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/experiments.h"
#include "obs/metrics.h"

namespace trajkit::bench {

/// The harnesses use the library's --key=value parser and the shared
/// --threads/--timing_json/--metrics_json trio.
using ::trajkit::Flags;
using ::trajkit::HarnessOptions;

/// Corpus knobs shared by all experiments. --users/--days/--seed shrink or
/// grow the synthetic corpus; the defaults below reproduce the numbers in
/// EXPERIMENTS.md. --seed accepts the full uint64 range.
inline synthgeo::GeneratorOptions CorpusOptionsFromFlags(
    const Flags& flags, int default_users = 60, int default_days = 6) {
  synthgeo::GeneratorOptions options;
  options.num_users = flags.GetInt("users", default_users);
  options.days_per_user = flags.GetInt("days", default_days);
  options.seed = flags.GetUint64("seed", 7);
  return options;
}

/// The facts that make two timing runs comparable, as (key, value) text
/// pairs: logical CPUs, compiler and CMake build type (bench/CMakeLists.txt
/// bakes in the last two). The source commit is not a binary fact:
/// tools/check_bench.py --update records it when it writes the baseline.
inline std::vector<std::pair<std::string, std::string>> HostFacts() {
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", TRAJKIT_HOST_COMPILER},
      {"build_type", TRAJKIT_HOST_BUILD_TYPE},
  };
}

/// Collects named wall-clock phase timings and, when --timing_json=<path>
/// was given, writes them as one JSON object — the machine-readable perf
/// trajectory consumed by BENCH_*.json tooling (tools/check_bench.py):
///   {"harness": "...", "threads": N,
///    "host": {"nproc": "4", "compiler": ..., "build_type": ...},
///    "timings_s": {"phase": 1.23, ...}}
/// Record() keeps insertion order; duplicate names are emitted as given.
/// Write() additionally honors the shared --metrics_json=<path> flag: the
/// process metrics registry (counters, gauges, latency histograms with
/// p50/p90/p99) is dumped alongside the timings, so every harness emits
/// the same structured observability artifact.
class TimingJson {
 public:
  TimingJson(const char* harness, const HarnessOptions& options)
      : harness_(harness),
        path_(options.timing_json),
        metrics_path_(options.metrics_json) {}

  /// Records one phase's wall-clock seconds.
  void Record(const std::string& name, double seconds) {
    entries_.emplace_back(name, seconds);
  }

  /// Convenience: records the stopwatch's elapsed seconds and restarts it,
  /// so consecutive phases chain naturally.
  void RecordLap(const std::string& name, Stopwatch& watch) {
    Record(name, watch.ElapsedSeconds());
    watch.Reset();
  }

  /// Writes the timing JSON (--timing_json) and the metrics registry dump
  /// (--metrics_json) if their flags were given; no-ops otherwise. Returns
  /// false (with a stderr note) when a file cannot be written.
  bool Write() const {
    if (!metrics_path_.empty()) {
      if (!obs::WriteTextFile(metrics_path_,
                              obs::MetricsRegistry::Global().ToJson())) {
        return false;
      }
      std::printf("metrics written to %s\n", metrics_path_.c_str());
    }
    if (path_.empty()) return true;
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "timing_json: cannot open '%s'\n", path_.c_str());
      return false;
    }
    std::fprintf(out, "{\n  \"harness\": \"%s\",\n  \"threads\": %d,\n",
                 harness_, MaxThreads());
    std::fprintf(out, "  \"host\": {");
    const auto facts = HostFacts();
    for (size_t i = 0; i < facts.size(); ++i) {
      std::fprintf(out, "%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                   facts[i].first.c_str(), facts[i].second.c_str());
    }
    std::fprintf(out, "},\n");
    std::fprintf(out, "  \"timings_s\": {");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(out, "%s\n    \"%s\": %.6f", i == 0 ? "" : ",",
                   entries_[i].first.c_str(), entries_[i].second);
    }
    std::fprintf(out, "\n  }\n}\n");
    std::fclose(out);
    std::printf("timings written to %s\n", path_.c_str());
    return true;
  }

 private:
  const char* harness_;
  std::string path_;
  std::string metrics_path_;
  std::vector<std::pair<std::string, double>> entries_;
};

/// Dies with a message when a Status/Result is not OK.
template <typename T>
T DieOnError(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

inline void DieOnError(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace trajkit::bench

#endif  // TRAJKIT_BENCH_BENCH_COMMON_H_
