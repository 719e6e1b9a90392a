// ldp-replay: the distributed real-time query engine as a CLI — replays a
// trace file against a DNS server with the paper's timing algorithm, then
// reports fidelity statistics (Figs 6-8) and latency.
//
//   ldp_replay --trace t.bin --server 127.0.0.1:5353
//   ldp_replay --trace t.bin --server 127.0.0.1:5353 --fast --distributors 4
#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/flags.h"
#include "common/strings.h"
#include "distrib/controller.h"
#include "distrib/spawn.h"
#include "net/tls.h"
#include "replay/realtime.h"
#include "stats/summary.h"
#include "trace/binary.h"

using namespace ldp;

namespace {

constexpr const char* kUsage =
    R"(usage: ldp_replay --trace FILE --server IP:PORT [options]
  --distributors N      client-instance threads (2)
  --queriers N          logical queriers per distributor (3)
  --fast                ignore trace timing, send as fast as possible
  --rewrite-target      point every query at --server (default: on)
  --follow-dst          hierarchy mode: send each query to its trace
                        destination (the OQDA) instead of --server; use
                        with a hierarchy proxy listening on those addresses
  --dst-port N          with --follow-dst: send to this port instead of
                        each record's dst_port (the proxy's service port)
  --loopback-dst        with --follow-dst: remap destinations into 127/8
                        via LoopbackAlias (match the proxy's flag)
  --local-addr IP       bind querier sockets to this source address
                        (default 127.0.0.1); distinct 127.x.y.z values per
                        replay process give each client group its own
                        source prefix — what a proxy catchment map routes on
  --timeout-ms N        age out inflight queries after N ms, in
                        [1, 86400000] (2000)
  --retransmits N       UDP retransmits before timing out, with
                        exponential backoff (0)
  --tcp-idle-timeout-ms N  close idle TCP connections after N ms (0 = keep)
  --tcp-reconnects N    reconnect budget per TCP connection (3)
  --tls                 replay every query over DNS-over-TLS (rewrites the
                        records' protocol to TLS; needs an OpenSSL build)
  --tls-port N          DoT port on the server (0 = the --server/record
                        port; ldp_serve --tls prints its "tls on" port)
  --metrics-out FILE    append JSONL metric snapshots to FILE during replay
                        (distributed: the merged all-agents stream)
  --metrics-interval-ms N  snapshot cadence in milliseconds, in
                        [1, 86400000] (1000)
Distributed replay (paper §2.6 controller/agent split):
  --agents N            spawn N local ldp_replay_agent processes, in
                        [0, 256], and run the replay through them
  --connect LIST        comma-separated IP:PORT list of already-running
                        agents (multi-host; overrides --agents)
  --agent-bin PATH      agent binary for --agents (default: the
                        ldp_replay_agent next to this executable)
  --chunk N             trace records per wire chunk, in [1, 1048576] (512)
  --window N            un-acked chunk credit per agent, in [1, 65535] (8)
Trace format by extension (.txt/.bin).)";

// Upper bound of --timeout-ms, --tcp-idle-timeout-ms and
// --metrics-interval-ms (one day): a timeout backed off by every
// retransmit level still fits in NanoDuration.
constexpr int64_t kMaxTimeoutMs = 86'400'000;

// The outcome lines after the sent/answered summary, local and merged
// distributed alike.
void PrintOutcomes(const replay::RealtimeReport& report) {
  std::printf("outcomes: timed_out %llu, send_failed %llu, retransmits "
              "%llu, id_collisions %llu\n",
              static_cast<unsigned long long>(report.timed_out),
              static_cast<unsigned long long>(report.send_failed),
              static_cast<unsigned long long>(report.retransmits),
              static_cast<unsigned long long>(report.id_collisions));
  if (report.tcp_reconnects != 0 || report.tcp_idle_closes != 0) {
    std::printf("tcp: reconnects %llu, idle_closes %llu\n",
                static_cast<unsigned long long>(report.tcp_reconnects),
                static_cast<unsigned long long>(report.tcp_idle_closes));
  }
  if (report.tls_handshakes != 0 || report.tls_aborts != 0) {
    std::printf("tls: handshakes %llu, resumptions %llu, aborts %llu\n",
                static_cast<unsigned long long>(report.tls_handshakes),
                static_cast<unsigned long long>(report.tls_resumptions),
                static_cast<unsigned long long>(report.tls_aborts));
  }
}

// `options` arrives with its chunk, credit window and stats interval set
// from the checked flags.
int RunDistributed(const Flags& flags,
                   const std::vector<trace::QueryRecord>& records,
                   const replay::RealtimeConfig& config, Endpoint server,
                   const std::string& metrics_out,
                   distrib::ControllerOptions options, size_t n_agents) {
  options.config = config;
  options.config.metrics = nullptr;
  options.config.snapshotter = nullptr;
  options.metrics_path = metrics_out;

  std::vector<distrib::AgentProcess> spawned;
  std::string connect = flags.GetString("connect", "");
  if (!connect.empty()) {
    for (std::string_view part : Split(connect, ',')) {
      auto endpoint = Endpoint::Parse(TrimWhitespace(part));
      if (!endpoint.ok()) {
        std::fprintf(stderr, "--connect: %s\n",
                     endpoint.error().ToString().c_str());
        return 2;
      }
      options.agents.push_back(*endpoint);
    }
  } else {
    std::string binary = flags.GetString("agent-bin", "");
    if (binary.empty()) binary = distrib::SiblingBinary("ldp_replay_agent");
    for (size_t i = 0; i < n_agents; ++i) {
      distrib::SpawnOptions spawn_options;
      if (!metrics_out.empty()) {
        // Per-agent snapshot files next to the merged stream, e.g.
        // m.jsonl -> m.agent0.jsonl (fold offline: ldp_trace_stats merge).
        std::string base = metrics_out;
        std::string suffix = ".agent" + std::to_string(i) + ".jsonl";
        if (EndsWith(base, ".jsonl")) base.resize(base.size() - 6);
        spawn_options.extra_args.push_back("--metrics-out=" + base + suffix);
      }
      auto agents = distrib::SpawnLocalAgents(binary, 1, spawn_options);
      if (!agents.ok()) {
        std::fprintf(stderr, "%s\n", agents.error().ToString().c_str());
        distrib::StopAgents(spawned);
        return 1;
      }
      spawned.push_back((*agents)[0]);
      options.agents.push_back((*agents)[0].endpoint);
    }
  }

  std::printf("replaying %zu queries against %s via %zu agents (%s)...\n",
              records.size(), server.ToString().c_str(),
              options.agents.size(),
              config.fast_mode ? "fast mode" : "trace timing");
  auto report = distrib::RunDistributedReplay(records, options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.error().ToString().c_str());
    distrib::StopAgents(spawned);
    return 1;
  }
  // Agents exit on their own after BYE; reap (or terminate, on failure).
  bool agents_clean = report->failed
                          ? (distrib::StopAgents(spawned), true)
                          : distrib::WaitAgents(spawned);

  for (const auto& a : report->agents) {
    if (!a.connected) {
      std::printf("agent %u (%s): dropped at connect%s%s\n", a.id,
                  a.endpoint.ToString().c_str(),
                  a.error.empty() ? "" : ": ", a.error.c_str());
      continue;
    }
    const replay::RealtimeReport c = a.counts();
    std::printf("agent %u (%s): shipped %llu, sent %llu, answered %llu, "
                "timed_out %llu, send_failed %llu (clock offset %.3f ms, "
                "rtt %.3f ms)\n",
                a.id, a.endpoint.ToString().c_str(),
                static_cast<unsigned long long>(a.records_sent),
                static_cast<unsigned long long>(c.queries_sent),
                static_cast<unsigned long long>(c.answered),
                static_cast<unsigned long long>(c.timed_out),
                static_cast<unsigned long long>(c.send_failed),
                ToMillis(a.clock_offset), ToMillis(a.clock_rtt));
    if (!a.error.empty()) {
      std::printf("agent %u error: %s\n", a.id, a.error.c_str());
    }
  }
  const replay::RealtimeReport m = report->merged();
  std::printf("merged: sent %llu, answered %llu (%.1f%%), timed_out %llu, "
              "send_failed %llu, wall %.2fs\n",
              static_cast<unsigned long long>(m.queries_sent),
              static_cast<unsigned long long>(m.answered),
              m.queries_sent ? 100.0 * static_cast<double>(m.answered) /
                                   static_cast<double>(m.queries_sent)
                             : 0,
              static_cast<unsigned long long>(m.timed_out),
              static_cast<unsigned long long>(m.send_failed),
              ToSeconds(report->wall_duration));
  PrintOutcomes(m);
  if (!metrics_out.empty()) {
    std::printf("metrics: merged stream at %s\n", metrics_out.c_str());
  }

  if (report->failed) {
    std::fprintf(stderr, "distributed replay FAILED: %s\n",
                 report->error.c_str());
    return 1;
  }
  // Cross-process reconciliation (every shipped record accounted for by
  // exactly one agent, every agent's outcomes summing up).
  auto diffs = report->ReconcileDiffs();
  std::printf("reconcile: %s\n", diffs.empty() ? "OK" : "FAIL");
  for (const std::string& diff : diffs) {
    std::fprintf(stderr, "  %s\n", diff.c_str());
  }
  if (!agents_clean) {
    std::fprintf(stderr, "an agent process exited uncleanly\n");
  }
  return diffs.empty() && agents_clean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_result = Flags::Parse(
      argc, argv,
      {"fast", "rewrite-target", "follow-dst", "loopback-dst", "tls"});
  if (!flags_result.ok()) {
    std::fprintf(stderr, "%s\n", flags_result.error().ToString().c_str());
    return 2;
  }
  const Flags& flags = *flags_result;
  if (auto s = flags.RequireKnown({"trace", "server", "distributors",
                                   "queriers", "fast", "rewrite-target",
                                   "follow-dst", "dst-port", "loopback-dst",
                                   "local-addr", "timeout-ms", "retransmits",
                                   "tcp-idle-timeout-ms", "tcp-reconnects",
                                   "tls", "tls-port", "metrics-out",
                                   "metrics-interval-ms", "agents",
                                   "connect", "agent-bin",
                                   "chunk", "window", "help"});
      !s.ok()) {
    std::fprintf(stderr, "%s\n%s\n", s.error().ToString().c_str(), kUsage);
    return 2;
  }
  if (flags.GetBool("help", false) || !flags.Has("trace") ||
      !flags.Has("server")) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }

  // Integer flags are read before the trace loads: a value that does not
  // parse or lies outside its range exits 2 by flag name.
  const auto timeout_ms =
      flags.GetIntInRange("timeout-ms", 2000, 1, kMaxTimeoutMs);
  const auto idle_ms =
      flags.GetIntInRange("tcp-idle-timeout-ms", 0, 0, kMaxTimeoutMs);
  const auto dst_port = flags.GetIntInRange("dst-port", 0, 0, 0xffff);
  const auto tls_port = flags.GetIntInRange("tls-port", 0, 0, 0xffff);
  const auto metrics_interval_ms =
      flags.GetIntInRange("metrics-interval-ms", 1000, 1, kMaxTimeoutMs);
  const auto agents = flags.GetIntInRange("agents", 0, 0, 256);
  const auto chunk =
      flags.GetIntInRange("chunk", 512, 1, distrib::kMaxChunkRecords);
  const auto window = flags.GetIntInRange("window", 8, 1, 65535);
  for (const auto* value : {&timeout_ms, &idle_ms, &dst_port, &tls_port,
                            &metrics_interval_ms, &agents, &chunk,
                            &window}) {
    if (!value->ok()) {
      std::fprintf(stderr, "%s\n", value->error().ToString().c_str());
      return 2;
    }
  }

  auto server = Endpoint::Parse(flags.GetString("server", ""));
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.error().ToString().c_str());
    return 2;
  }

  // The counts are checked before the trace loads. A negative count stays
  // out of range (it wraps past 65535 as a size_t) for CheckConfig to
  // refuse; none wraps into range.
  replay::RealtimeConfig config;
  config.server = *server;
  config.query_timeout = Millis(*timeout_ms);
  auto distributors = flags.GetInt("distributors", 2);
  auto queriers = flags.GetInt("queriers", 3);
  auto retransmits = flags.GetInt("retransmits", 0);
  auto reconnects = flags.GetInt("tcp-reconnects", 3);
  for (const auto* count : {&distributors, &queriers, &retransmits,
                            &reconnects}) {
    if (!count->ok()) {
      std::fprintf(stderr, "%s\n", count->error().ToString().c_str());
      return 2;
    }
  }
  auto to_int = [](int64_t value) {
    return static_cast<int>(std::clamp<int64_t>(
        value, std::numeric_limits<int>::min(),
        std::numeric_limits<int>::max()));
  };
  config.n_distributors = static_cast<size_t>(*distributors);
  config.queriers_per_distributor = static_cast<size_t>(*queriers);
  config.max_retransmits = to_int(*retransmits);
  config.tcp_max_reconnects = to_int(*reconnects);
  if (Status checked = replay::CheckConfig(config); !checked.ok()) {
    std::fprintf(stderr, "%s\n", checked.error().message().c_str());
    return 2;
  }

  std::string path = flags.GetString("trace", "");
  Result<std::vector<trace::QueryRecord>> records =
      trace::ReadTraceFile(path);
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.error().ToString().c_str());
    return 1;
  }
  bool follow_dst = flags.GetBool("follow-dst", false);
  if (!follow_dst && flags.GetBool("rewrite-target", true)) {
    for (auto& record : *records) {
      record.dst = server->addr;
      record.dst_port = server->port;
    }
  }
  bool all_tls = flags.GetBool("tls", false);
  if (all_tls) {
    if (!net::TlsAvailable()) {
      std::fprintf(stderr,
                   "--tls: this build has no OpenSSL (probe with "
                   "ldp_datapath_probe --tls)\n");
      return 1;
    }
    // The all-TLS study (paper §5, figs 13-15): every query rides DoT.
    for (auto& record : *records) record.protocol = trace::Protocol::kTls;
  }

  if (follow_dst) {
    config.follow_trace_dst = true;
    config.dst_port_override = static_cast<uint16_t>(*dst_port);
    config.loopback_alias_dst = flags.GetBool("loopback-dst", false);
  }
  if (flags.Has("local-addr")) {
    auto local = IpAddress::Parse(flags.GetString("local-addr", ""));
    if (!local.ok()) {
      std::fprintf(stderr, "--local-addr: %s\n",
                   local.error().ToString().c_str());
      return 2;
    }
    config.local_addr = *local;
  }
  config.fast_mode = flags.GetBool("fast", false);
  config.tcp_idle_timeout = Millis(*idle_ms);
  config.tls_port = static_cast<uint16_t>(*tls_port);

  std::string metrics_out = flags.GetString("metrics-out", "");
  if (*agents > 0 || !flags.GetString("connect", "").empty()) {
    distrib::ControllerOptions options;
    options.chunk_records = static_cast<uint32_t>(*chunk);
    options.credit_window = static_cast<uint32_t>(*window);
    options.stats_interval = Millis(*metrics_interval_ms);
    return RunDistributed(flags, *records, config, *server, metrics_out,
                          std::move(options), static_cast<size_t>(*agents));
  }

  // Live metrics: rows stream to --metrics-out during the replay, and the
  // final row (written after all distributors join) must reconcile with the
  // report the tool prints below.
  stats::MetricsRegistry metrics;
  std::unique_ptr<stats::MetricsSnapshotter> snapshotter;
  if (!metrics_out.empty()) {
    stats::MetricsSnapshotter::Options opts;
    opts.path = metrics_out;
    opts.interval = Millis(*metrics_interval_ms);
    opts.keep_history = true;  // for the reconciliation check below
    snapshotter = std::make_unique<stats::MetricsSnapshotter>(metrics, opts);
    if (auto s = snapshotter->Open(); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.error().ToString().c_str());
      return 1;
    }
    config.metrics = &metrics;
    config.snapshotter = snapshotter.get();
  }

  std::printf("replaying %zu queries against %s (%zu distributors x %zu "
              "queriers%s)...\n",
              records->size(), server->ToString().c_str(),
              config.n_distributors, config.queriers_per_distributor,
              config.fast_mode ? ", fast mode" : "");
  auto report = replay::RunRealtimeReplay(*records, config);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.error().ToString().c_str());
    return 1;
  }

  std::printf("sent %llu, answered %llu (%.1f%%), wall %.2fs (%.1fk q/s)\n",
              static_cast<unsigned long long>(report->queries_sent),
              static_cast<unsigned long long>(report->answered),
              report->queries_sent
                  ? 100.0 * static_cast<double>(report->answered) /
                        static_cast<double>(report->queries_sent)
                  : 0,
              ToSeconds(report->wall_duration),
              static_cast<double>(report->queries_sent) /
                  ToSeconds(report->wall_duration) / 1000.0);
  PrintOutcomes(*report);

  if (!config.fast_mode) {
    stats::Summary timing;
    timing.AddAll(report->TimingErrorsMs(records->size() / 20));
    std::printf("timing error (ms):  %s\n",
                timing.Summarize().ToString(3).c_str());
    stats::Summary rate;
    for (double e : report->RateErrors()) rate.Add(100 * e);
    std::printf("rate error (%%):     %s\n",
                rate.Summarize().ToString(3).c_str());
  }
  stats::Summary latency;
  for (const auto& send : report->sends) {
    if (send.answered()) latency.Add(ToMillis(send.replied - send.sent));
  }
  if (!latency.empty()) {
    std::printf("query latency (ms): %s\n",
                latency.Summarize().ToString(3).c_str());
  }

  if (snapshotter != nullptr) {
    // The final JSONL row was written after every distributor joined, so
    // each of its replay counters must equal the report exactly, and the
    // outcomes must satisfy sent == answered + timed_out + send_failed.
    const auto& last = snapshotter->history().back();
    bool reconciled = report->queries_sent == report->answered +
                                                  report->timed_out +
                                                  report->send_failed;
    for (const auto& row : replay::kTransportLedger) {
      const uint64_t in_row = last.CounterValue(row.name);
      const uint64_t in_report = (*report).*row.field;
      if (in_row != in_report) {
        reconciled = false;
        std::fprintf(stderr,
                     "metrics reconcile FAILED: %s is %llu in the final row, "
                     "%llu in the report\n",
                     row.name, static_cast<unsigned long long>(in_row),
                     static_cast<unsigned long long>(in_report));
      }
    }
    std::printf("metrics: %llu rows to %s; reconcile: %s\n",
                static_cast<unsigned long long>(snapshotter->rows_written()),
                metrics_out.c_str(), reconciled ? "OK" : "FAIL");
    if (!reconciled) return 1;
  }
  return 0;
}
