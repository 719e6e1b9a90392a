#include "common/clock.h"

#include <ctime>
#include <cstdio>
#include <cstdlib>

namespace ldp {

std::string FormatSeconds(NanoTime t) {
  bool negative = t < 0;
  uint64_t abs = negative ? static_cast<uint64_t>(-t) : static_cast<uint64_t>(t);
  uint64_t secs = abs / kNanosPerSecond;
  uint64_t nanos = abs % kNanosPerSecond;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%s%llu.%09llu", negative ? "-" : "",
                static_cast<unsigned long long>(secs),
                static_cast<unsigned long long>(nanos));
  return buf;
}

NanoTime MonotonicNow() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<NanoTime>(ts.tv_sec) * kNanosPerSecond + ts.tv_nsec;
}

NanoTime WallNow() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<NanoTime>(ts.tv_sec) * kNanosPerSecond + ts.tv_nsec;
}

NanoDuration WallToMonotonicOffset() {
  // Bracket the wall read between two monotonic reads and take the
  // midpoint; retry a few times if a preemption stretched the bracket.
  NanoDuration offset = 0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    NanoTime before = MonotonicNow();
    NanoTime wall = WallNow();
    NanoTime after = MonotonicNow();
    offset = before + (after - before) / 2 - wall;
    if (after - before < 10 * kNanosPerMicro) break;
  }
  return offset;
}

}  // namespace ldp
