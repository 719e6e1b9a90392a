// Replay timing (paper §2.6 "Correct timing for replayed queries").
//
// A querier learns the trace epoch t̄₁ and its own real epoch t₁ from the
// controller's time-synchronization message. For query i with trace time
// t̄ᵢ, arriving at the querier at real time tᵢ, the residual delay to
// inject is
//
//     ΔTᵢ = (t̄ᵢ − t̄₁) − (tᵢ − t₁)
//
// i.e. ideal relative trace delay minus the processing/communication delay
// already accumulated. When input processing falls behind (ΔTᵢ ≤ 0) the
// query goes out immediately — the scheduler self-corrects rather than
// drifting.
#ifndef LDPLAYER_REPLAY_TIMING_H
#define LDPLAYER_REPLAY_TIMING_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/clock.h"

namespace ldp::replay {

class ReplayScheduler {
 public:
  // Starts the replay clock: `trace_epoch` is the first query's trace time,
  // `real_epoch` the real (or simulated) time at which replay begins.
  void Synchronize(NanoTime trace_epoch, NanoTime real_epoch) {
    trace_epoch_ = trace_epoch;
    real_epoch_ = real_epoch;
    synchronized_ = true;
  }
  bool synchronized() const { return synchronized_; }

  // Residual delay before sending a query stamped `trace_time`, evaluated
  // at real time `now`. Never negative.
  NanoDuration DelayFor(NanoTime trace_time, NanoTime now) const {
    NanoDuration ideal = trace_time - trace_epoch_;
    NanoDuration elapsed = now - real_epoch_;
    NanoDuration residual = ideal - elapsed;
    return residual > 0 ? residual : 0;
  }

  // How far behind schedule the replay is at `now` for `trace_time`
  // (positive = lagging); diagnostic for the §4.2 accuracy analysis.
  NanoDuration Lag(NanoTime trace_time, NanoTime now) const {
    return (now - real_epoch_) - (trace_time - trace_epoch_);
  }

 private:
  NanoTime trace_epoch_ = 0;
  NanoTime real_epoch_ = 0;
  bool synchronized_ = false;
};

// Hashed timer wheel for aging out entries with individual deadlines (the
// hierarchy proxy's idle flows): O(1) schedule and cancel, expiry
// collection amortized across Advance calls. Keys are caller-defined 64-bit
// handles. Entries due further out than one wheel revolution stay parked in
// their slot and are skipped until the cursor passes them with the deadline
// actually due — no cascading levels needed at replay timeout scales.
//
// Re-scheduling a live key just files it again; the
// stale slot entry is dropped lazily when scanned. Cancel is a map erase;
// the slot entry likewise dies lazily.
class TimerWheel {
 public:
  explicit TimerWheel(NanoDuration tick = Millis(8), size_t n_slots = 256)
      : tick_(tick > 0 ? tick : 1),
        slots_(n_slots > 0 ? n_slots : 1) {}

  void Schedule(uint64_t key, NanoTime deadline) {
    deadlines_[key] = deadline;
    int64_t t = deadline / tick_;
    // A deadline at or behind the cursor would land in an already-scanned
    // slot and wait a full revolution; file it into the next scanned slot.
    if (have_cursor_ && t <= cursor_tick_) t = cursor_tick_ + 1;
    slots_[static_cast<size_t>(t) % slots_.size()].push_back(key);
  }

  void Cancel(uint64_t key) { deadlines_.erase(key); }
  bool Contains(uint64_t key) const { return deadlines_.count(key) != 0; }
  bool empty() const { return deadlines_.empty(); }
  size_t size() const { return deadlines_.size(); }

  // Appends every key whose deadline is <= `now` to `expired` and removes
  // it from the wheel. Call with nondecreasing `now` (a monotonic clock).
  void Advance(NanoTime now, std::vector<uint64_t>& expired) {
    int64_t now_tick = now / tick_;
    int64_t span = have_cursor_ ? now_tick - cursor_tick_
                                : static_cast<int64_t>(slots_.size()) - 1;
    if (span < 0) span = 0;
    if (span >= static_cast<int64_t>(slots_.size())) {
      span = static_cast<int64_t>(slots_.size()) - 1;  // full revolution
    }
    have_cursor_ = true;
    cursor_tick_ = now_tick;
    if (deadlines_.empty()) return;
    for (int64_t t = now_tick - span; t <= now_tick; ++t) {
      auto& slot = slots_[static_cast<size_t>(t) % slots_.size()];
      size_t keep = 0;
      for (size_t i = 0; i < slot.size(); ++i) {
        uint64_t key = slot[i];
        auto it = deadlines_.find(key);
        if (it == deadlines_.end()) continue;  // cancelled: drop lazily
        if (it->second <= now) {
          expired.push_back(key);
          deadlines_.erase(it);
          continue;
        }
        slot[keep++] = key;  // rescheduled later or beyond one revolution
      }
      slot.resize(keep);
    }
  }

 private:
  NanoDuration tick_;
  std::vector<std::vector<uint64_t>> slots_;
  std::unordered_map<uint64_t, NanoTime> deadlines_;
  int64_t cursor_tick_ = 0;
  bool have_cursor_ = false;
};

}  // namespace ldp::replay

#endif  // LDPLAYER_REPLAY_TIMING_H
