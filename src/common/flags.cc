#include "common/flags.h"

#include <cmath>
#include <sstream>

#include "common/strings.h"

namespace ldp {

Result<Flags> Flags::Parse(int argc, char** argv,
                           const std::vector<std::string>& boolean_flags) {
  auto is_boolean = [&boolean_flags](std::string_view key) {
    if (key == "help") return true;
    for (const auto& candidate : boolean_flags) {
      if (key == candidate) return true;
    }
    return false;
  };

  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!StartsWith(arg, "--")) {
      flags.positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags.values_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
      continue;
    }
    // "--key value" unless declared boolean or the next token is a flag.
    if (!is_boolean(arg) && i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      flags.values_[std::string(arg)] = argv[++i];
    } else {
      flags.values_[std::string(arg)] = "true";
    }
  }
  return flags;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

Result<int64_t> Flags::GetInt(const std::string& key, int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  auto value = ParseInt64(it->second);
  if (!value.ok()) {
    return value.error().WithContext("--" + key);
  }
  return *value;
}

Result<int64_t> Flags::GetIntInRange(const std::string& key,
                                     int64_t fallback, int64_t low,
                                     int64_t high) const {
  LDP_ASSIGN_OR_RETURN(int64_t value, GetInt(key, fallback));
  if (value < low || value > high) {
    return Error(ErrorCode::kOutOfRange, "--" + key + " must be in [" +
                                             std::to_string(low) + ", " +
                                             std::to_string(high) + "]");
  }
  return value;
}

Result<double> Flags::GetDouble(const std::string& key,
                                double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  auto value = ParseDouble(it->second);
  if (!value.ok()) {
    return value.error().WithContext("--" + key);
  }
  return *value;
}

Result<double> Flags::GetDoubleInRange(const std::string& key,
                                       double fallback, double low,
                                       double high, bool low_open) const {
  LDP_ASSIGN_OR_RETURN(double value, GetDouble(key, fallback));
  const bool above_low = low_open ? value > low : value >= low;
  if (!std::isfinite(value) || !above_low || value > high) {
    std::ostringstream range;
    range << "--" << key << " must be a finite number in "
          << (low_open ? "(" : "[") << low << ", " << high << "]";
    return Error(ErrorCode::kOutOfRange, range.str());
  }
  return value;
}

bool Flags::GetBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

Status Flags::RequireKnown(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : values_) {
    bool found = false;
    for (const auto& candidate : known) {
      if (key == candidate) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Error(ErrorCode::kInvalidArgument, "unknown flag --" + key);
    }
  }
  return Status::Ok();
}

}  // namespace ldp
