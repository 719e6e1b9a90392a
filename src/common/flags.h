// Minimal command-line flag parsing for the tools/ binaries:
// --key=value and --key value forms, typed getters with defaults, and
// usage text. Deliberately tiny — no registration globals, no dashes in
// front of positional arguments.
#ifndef LDPLAYER_COMMON_FLAGS_H
#define LDPLAYER_COMMON_FLAGS_H

#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace ldp {

class Flags {
 public:
  // Parses argv; unknown flags are kept (validated by RequireKnown).
  // Keys listed in `boolean_flags` never consume the following token, so
  // "--verbose file.txt" keeps file.txt positional. "help" is always
  // boolean.
  static Result<Flags> Parse(int argc, char** argv,
                             const std::vector<std::string>& boolean_flags = {});

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  Result<int64_t> GetInt(const std::string& key, int64_t fallback) const;
  // GetInt, then an error naming the flag unless low <= value <= high
  // (the fallback, for an absent flag, must lie in range too).
  Result<int64_t> GetIntInRange(const std::string& key, int64_t fallback,
                                int64_t low, int64_t high) const;
  Result<double> GetDouble(const std::string& key, double fallback) const;
  // GetDouble, then an error naming the flag for a NaN, an infinity or a
  // value outside [low, high], or outside (low, high] with `low_open` (the
  // fallback, for an absent flag, must lie in range too).
  Result<double> GetDoubleInRange(const std::string& key, double fallback,
                                  double low, double high,
                                  bool low_open = false) const;
  bool GetBool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Errors if any parsed flag is not in `known` — catches typos.
  Status RequireKnown(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace ldp

#endif  // LDPLAYER_COMMON_FLAGS_H
