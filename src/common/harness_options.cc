#include "common/harness_options.h"

#include <cstdio>
#include <cstring>

#include "common/parallel.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"

namespace trajkit {
namespace {

/// If `arg` is "--<key>=<value>", returns the value; nullptr otherwise.
const char* MatchFlag(const char* arg, const char* key) {
  const size_t key_len = std::strlen(key);
  if (std::strncmp(arg, "--", 2) != 0) return nullptr;
  if (std::strncmp(arg + 2, key, key_len) != 0) return nullptr;
  if (arg[2 + key_len] != '=') return nullptr;
  return arg + 2 + key_len + 1;
}

}  // namespace

HarnessOptions HarnessOptions::FromFlags(const Flags& flags) {
  HarnessOptions options;
  options.threads = flags.GetInt("threads", 0);
  options.timing_json = flags.GetString("timing_json", "");
  options.metrics_json = flags.GetString("metrics_json", "");
  options.metrics_prom = flags.GetString("metrics_prom", "");
  options.timeseries_json = flags.GetString("timeseries_json", "");
  options.trace_json = flags.GetString("trace_json", "");
  options.trace_test = flags.GetString("trace_test", "");
  options.trace_sample = flags.GetUint64("trace_sample", 1);
  options.trace_buffer =
      static_cast<size_t>(flags.GetUint64("trace_buffer", 8192));
  return options;
}

HarnessOptions HarnessOptions::FromArgv(int* argc, char** argv) {
  HarnessOptions options;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    if (const char* value = MatchFlag(argv[i], "threads")) {
      options.threads =
          static_cast<int>(ParseInt64(value).value_or(0));
    } else if (const char* value = MatchFlag(argv[i], "timing_json")) {
      options.timing_json = value;
    } else if (const char* value = MatchFlag(argv[i], "metrics_json")) {
      options.metrics_json = value;
    } else if (const char* value = MatchFlag(argv[i], "metrics_prom")) {
      options.metrics_prom = value;
    } else if (const char* value = MatchFlag(argv[i], "timeseries_json")) {
      options.timeseries_json = value;
    } else if (const char* value = MatchFlag(argv[i], "trace_json")) {
      options.trace_json = value;
    } else if (const char* value = MatchFlag(argv[i], "trace_test")) {
      options.trace_test = value;
    } else if (const char* value = MatchFlag(argv[i], "trace_sample")) {
      options.trace_sample =
          static_cast<uint64_t>(ParseInt64(value).value_or(1));
    } else if (const char* value = MatchFlag(argv[i], "trace_buffer")) {
      options.trace_buffer =
          static_cast<size_t>(ParseInt64(value).value_or(8192));
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  return options;
}

int HarnessOptions::ApplyThreads() const {
  if (threads > 0) SetMaxThreads(threads);
  return MaxThreads();
}

void HarnessOptions::ConfigureTracing(bool always) const {
  if (!always && !tracing_requested()) return;
  obs::RequestTracerOptions tracer_options;
  tracer_options.enabled = true;
  tracer_options.sample_every = trace_sample == 0 ? 1 : trace_sample;
  tracer_options.buffer_capacity = trace_buffer == 0 ? 8192 : trace_buffer;
  obs::RequestTracer::Global().Configure(tracer_options);
}

bool HarnessOptions::DumpTrace() const {
  bool ok = true;
  const obs::RequestTracer& tracer = obs::RequestTracer::Global();
  if (!trace_json.empty()) {
    if (obs::WriteTextFile(trace_json, tracer.ToChromeTraceJson())) {
      std::printf("trace written to %s\n", trace_json.c_str());
    } else {
      ok = false;
    }
  }
  if (!trace_test.empty()) {
    if (obs::WriteTextFile(trace_test, tracer.ToTestFormat())) {
      std::printf("trace test dump written to %s\n", trace_test.c_str());
    } else {
      ok = false;
    }
  }
  return ok;
}

}  // namespace trajkit
