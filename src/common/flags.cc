#include "common/flags.h"

#include <limits>

#include "common/strings.h"

namespace trajkit {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!StartsWith(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    // insert_or_assign instead of operator[]= : the latter trips a GCC 12
    // -Wrestrict false positive (PR 105651) under -Werror.
    if (eq == std::string_view::npos) {
      values_.insert_or_assign(std::string(arg), std::string("1"));
    } else {
      values_.insert_or_assign(std::string(arg.substr(0, eq)),
                               std::string(arg.substr(eq + 1)));
    }
  }
}

void Flags::RecordMalformed(const std::string& key, const std::string& value,
                            const char* type) const {
  if (!status_.ok()) return;
  status_ = Status::InvalidArgument(
      StrPrintf("--%s=%s is not %s", key.c_str(), value.c_str(), type));
}

int Flags::GetInt(const std::string& key, int fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const auto value = ParseInt64(it->second);
  if (!value.ok() || value.value() < std::numeric_limits<int>::min() ||
      value.value() > std::numeric_limits<int>::max()) {
    RecordMalformed(key, it->second, "an int");
    return fallback;
  }
  return static_cast<int>(value.value());
}

uint64_t Flags::GetUint64(const std::string& key, uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const auto value = ParseUint64(it->second);
  if (!value.ok()) {
    RecordMalformed(key, it->second, "an unsigned 64-bit integer");
    return fallback;
  }
  return static_cast<uint64_t>(value.value());
}

double Flags::GetDouble(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const auto value = ParseDouble(it->second);
  if (!value.ok()) {
    RecordMalformed(key, it->second, "a number");
    return fallback;
  }
  return value.value();
}

std::string Flags::GetString(const std::string& key,
                             const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool Flags::GetBool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second != "0" && it->second != "false";
}

bool Flags::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

}  // namespace trajkit
