// Scenario engine: composes a legitimate replay trace with attack
// overlays (mutate/attack.h) and measures both sides of the fight over
// the real-socket chain replay → proxy → server.
//
// The paper positions LDplayer as the tool for exactly these what-ifs
// ("study of server hardware and software under denial-of-service
// attack", §1) but never runs them; this module supplies the missing
// harness. The split is deliberate:
//
//   - attack *generation* lives in mutate/ (plain trace records);
//   - per-class *measurement* lives here: OverlayAttack's mask lines up
//     with RealtimeReport::sends (both trace-ordered), so one replay
//     yields separate answered-rate/latency accounting for legitimate
//     and attack traffic;
//   - what the attack *costs the server* is read from the machinery's
//     existing meters: engine cache hit rate (NXDOMAIN flood collapses
//     it), response_bytes (amplification), proxy reclaimed slots +
//     evicted_drops (spoofed flood), loop-lag histograms (CPU proxy).
//
// One attack cannot ride the trace replayer: spoofed *sources*. A
// realtime querier owns one socket, so every query it sends leaves from
// one client endpoint no matter what record.src says. RunSpoofedFlood is
// the real-socket stand-in: a socket-rotating injector that mints a
// fresh ephemeral port (= a fresh client endpoint) every few queries.
#ifndef LDPLAYER_SCENARIO_SCENARIO_H
#define LDPLAYER_SCENARIO_SCENARIO_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/ip.h"
#include "common/result.h"
#include "replay/realtime.h"
#include "server/engine.h"
#include "trace/record.h"

namespace ldp::scenario {

// Outcome summary for one traffic class carved out of a replay report.
struct TrafficClassReport {
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t timed_out = 0;
  uint64_t send_failed = 0;
  // Reply latency quantiles over answered queries, milliseconds.
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double latency_p99_ms = 0;

  double answered_rate() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(answered) /
                           static_cast<double>(sent);
  }
};

struct SplitReport {
  TrafficClassReport legit;
  TrafficClassReport attack;
};

// Splits a replay report into legitimate/attack classes using the
// is-attack mask from mutate::OverlayAttack. `report.sends` and `mask`
// are both in trace order; sends may be shorter if the replay was cut
// off early (trailing records count as neither class).
SplitReport SplitOutcomes(const replay::RealtimeReport& report,
                          const std::vector<bool>& mask);

// Amplification accounting: runs each attack query through the engine
// wire-to-wire (same code path the live server executes, including the
// EDNS-advertised size limit) and reports the response/query byte ratio
// — the number a reflector attack multiplies its bandwidth by.
struct AmplificationReport {
  uint64_t queries = 0;
  uint64_t query_bytes = 0;
  uint64_t response_bytes = 0;

  double factor() const {
    return query_bytes == 0 ? 0.0
                            : static_cast<double>(response_bytes) /
                                  static_cast<double>(query_bytes);
  }
};

AmplificationReport ComputeAmplification(
    server::AuthServerEngine& engine,
    std::span<const trace::QueryRecord> records);

// Spoofed-source flood over real sockets. Each rotation closes a socket
// and binds a fresh one, minting a new ephemeral port — to the proxy, a
// brand-new client endpoint. The proxy's ID ring holds no per-client
// state, so the flood's replies come back to whichever sockets are still
// open; a reply to a closed socket is lost at the client, not the proxy.
struct SpoofedFloodConfig {
  Endpoint target;          // an emulated NS address at the proxy port
  Bytes query_wire;         // the (cacheable) query repeated by the flood
  double rate_qps = 5000;
  NanoDuration duration = Seconds(2);
  size_t n_sockets = 64;            // concurrent socket pool
  size_t rotate_after_sends = 2;    // sends per socket before rotation
  // Post-flood grace to count stragglers before the loop stops.
  NanoDuration linger = Millis(200);
};

struct SpoofedFloodReport {
  uint64_t sent = 0;
  uint64_t send_errors = 0;
  uint64_t sockets_opened = 0;  // == distinct client endpoints offered
  uint64_t replies = 0;
};

Result<SpoofedFloodReport> RunSpoofedFlood(const SpoofedFloodConfig& config);

}  // namespace ldp::scenario

#endif  // LDPLAYER_SCENARIO_SCENARIO_H
