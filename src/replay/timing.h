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

}  // namespace ldp::replay

#endif  // LDPLAYER_REPLAY_TIMING_H
