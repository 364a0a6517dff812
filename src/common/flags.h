#ifndef TRAJKIT_COMMON_FLAGS_H_
#define TRAJKIT_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace trajkit {

/// Minimal command-line parser for the experiment harnesses and the CLI:
/// recognizes "--key=value" and bare "--key" (value "1"); anything not
/// starting with "--" is collected as a positional argument.
class Flags {
 public:
  Flags(int argc, char** argv);

  /// Typed lookups with fallbacks. A value that does not parse as the
  /// type, or does not fit it, returns the fallback too and is recorded:
  /// status() reports the first such flag.
  int GetInt(const std::string& key, int fallback) const;
  /// Full-width unsigned lookup for 64-bit seeds: GetInt would narrow
  /// through int and mangle seeds above 2^31-1.
  uint64_t GetUint64(const std::string& key, uint64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  bool Has(const std::string& key) const;

  /// InvalidArgument naming the first flag whose value a numeric getter
  /// above could not parse or fit, OK if there was none. A command reads
  /// its flags, then checks this before it acts on them.
  const Status& status() const { return status_; }

  /// Non-flag arguments in order (e.g. the CLI subcommand).
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  /// Written by the const getters: the record of what they could not read.
  mutable Status status_;

  /// Records `key`'s value as not a `type` (keeps the first record).
  void RecordMalformed(const std::string& key, const std::string& value,
                       const char* type) const;
};

}  // namespace trajkit

#endif  // TRAJKIT_COMMON_FLAGS_H_
