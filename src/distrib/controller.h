// Controller side of the distributed replay (paper §2.6): connects to N
// ldp_replay_agent processes, pushes the replay configuration, measures
// per-agent clock offsets, broadcasts a synchronized START epoch, then
// streams the trace in chunks — each query routed to the agent owning its
// source address via the same consistent-hash stickiness the in-process
// Postman uses, so one simulated client never splits across agents.
//
// Flow control is credit-based: at most `credit_window` un-acked chunks
// per agent, and the trace cursor STALLS (in global trace order) when the
// next record's owner is out of credit — a slow agent slows the replay
// instead of growing anyone's memory. Agents that fail at connect time
// are dropped and the ring is built over the survivors; an agent dying
// MID-RUN is a terminal error (reported, never rebalanced — rebalancing
// would break the sent == answered + timed_out + send_failed accounting).
#ifndef LDPLAYER_DISTRIB_CONTROLLER_H
#define LDPLAYER_DISTRIB_CONTROLLER_H

#include <string>
#include <vector>

#include "distrib/protocol.h"
#include "replay/realtime.h"
#include "stats/metrics.h"
#include "trace/record.h"

namespace ldp::distrib {

struct ControllerOptions {
  // Agent endpoints (already listening). At least one must connect.
  std::vector<Endpoint> agents;
  // Replay parameters forwarded to every agent via HELLO. Local metrics
  // pointers are ignored; seed also keys the assignment ring.
  replay::RealtimeConfig config;

  uint32_t chunk_records = 512;
  uint32_t credit_window = 8;
  NanoDuration stats_interval = Seconds(1);
  // Merged (all-agents) metrics JSONL path; empty = none.
  std::string metrics_path;
  // Gap between the last handshake and the synchronized epoch.
  NanoDuration start_delay = Millis(200);
  // CLOCK_PING samples per agent; the best-RTT sample wins.
  int clock_samples = 5;
  size_t ring_vnodes = 64;
  // Keep going when some (not all) agents fail to connect.
  bool allow_partial_connect = true;
  // Give up if an agent's handshake stalls this long.
  NanoDuration handshake_timeout = Seconds(10);
};

// Per-agent outcome, kept even for agents that failed.
struct AgentStatus {
  uint16_t id = 0;
  Endpoint endpoint;
  bool connected = false;
  bool completed = false;      // REPORT received
  // The agent's latest metrics: its REPORT's final snapshot once
  // completed, else its last STATS frame (empty before the first).
  stats::MetricsSnapshot metrics;
  std::string error;           // why this agent dropped / died
  NanoDuration clock_offset = 0;  // agent_mono - controller_mono
  NanoDuration clock_rtt = 0;     // RTT of the winning sample
  uint64_t chunks_sent = 0;
  uint64_t records_sent = 0;

  // The agent's transport counts, read from `metrics`.
  replay::RealtimeReport counts() const {
    return stats::ReadLedger<replay::kTransportLedger>(metrics);
  }
};

struct DistributedReport {
  std::vector<AgentStatus> agents;
  // MergeSnapshots over every agent's latest snapshot: the final ones on
  // a completed run, partial STATS ones for agents that died.
  stats::MetricsSnapshot merged_metrics;
  uint64_t total_records = 0;
  NanoDuration wall_duration = 0;

  // Mid-run failure: partial stats above are still valid; `error` says
  // which agent died and why.
  bool failed = false;
  std::string error;

  // The merged transport counts, read from `merged_metrics`.
  replay::RealtimeReport merged() const {
    return stats::ReadLedger<replay::kTransportLedger>(merged_metrics);
  }

  // Cross-process reconciliation: every record the controller shipped
  // must appear in exactly one agent's `sent`, every sent query must have
  // a terminal outcome, and the merged totals must cover the whole trace.
  // Returns one human-readable line per violation (empty = reconciled).
  std::vector<std::string> ReconcileDiffs() const;
};

// Runs one distributed replay to completion (blocks; owns its own event
// loop). Records' timestamps must ascend. Returns an error only when the
// run could not start (no agents reachable, bad arguments — a config
// HELLO cannot carry is refused before any agent is dialed); runtime
// failures come back as report.failed with partial accounting.
Result<DistributedReport> RunDistributedReplay(
    const std::vector<trace::QueryRecord>& records,
    const ControllerOptions& options);

}  // namespace ldp::distrib

#endif  // LDPLAYER_DISTRIB_CONTROLLER_H
