// Time representation shared by traces, the simulator, and the real-time
// replay engine. All timestamps are nanoseconds in a 64-bit signed integer:
// trace time is nanoseconds since the trace epoch, simulator time is
// nanoseconds since simulation start, and wall time is nanoseconds since the
// Unix epoch. Using one scalar type keeps the ΔT = Δt̄ − Δt replay arithmetic
// (paper §2.6) trivial and overflow-safe for ~292 years of range.
#ifndef LDPLAYER_COMMON_CLOCK_H
#define LDPLAYER_COMMON_CLOCK_H

#include <cstdint>
#include <string>

namespace ldp {

using NanoTime = int64_t;      // a point in time, ns
using NanoDuration = int64_t;  // a span of time, ns

constexpr NanoDuration kNanosPerMicro = 1'000;
constexpr NanoDuration kNanosPerMilli = 1'000'000;
constexpr NanoDuration kNanosPerSecond = 1'000'000'000;

constexpr NanoDuration Micros(int64_t n) { return n * kNanosPerMicro; }
constexpr NanoDuration Millis(int64_t n) { return n * kNanosPerMilli; }
constexpr NanoDuration Seconds(int64_t n) { return n * kNanosPerSecond; }
constexpr NanoDuration SecondsF(double s) {
  return static_cast<NanoDuration>(s * static_cast<double>(kNanosPerSecond));
}

constexpr double ToSeconds(NanoDuration d) {
  return static_cast<double>(d) / static_cast<double>(kNanosPerSecond);
}
constexpr double ToMillis(NanoDuration d) {
  return static_cast<double>(d) / static_cast<double>(kNanosPerMilli);
}

// "12.345678901" seconds rendering for trace text files.
std::string FormatSeconds(NanoTime t);

// Monotonic wall clock (CLOCK_MONOTONIC) for real-time replay scheduling.
NanoTime MonotonicNow();

// Wall clock (CLOCK_REALTIME) for timestamps in captures.
NanoTime WallNow();

// CLOCK_MONOTONIC minus CLOCK_REALTIME, now. Adding it to a kernel
// timestamp taken on the wall clock (socket receive stamps, packet-ring
// frame headers) places that timestamp on the monotonic clock.
NanoDuration WallToMonotonicOffset();

}  // namespace ldp

#endif  // LDPLAYER_COMMON_CLOCK_H
