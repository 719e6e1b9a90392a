// Distributed-replay scaling (paper §2.6 / §5.3): the same fast-mode UDP
// stream replayed (a) by one in-process engine and (b) through the
// controller → agent wire protocol with two agents, against the same
// loopback server. Reports the throughput ratio and the full terminal-
// outcome accounting for both phases into BENCH_dist.json.
//
// Paper result: distributing queriers across hosts scales replay past the
// single-host generator bottleneck (LDplayer drives B-Root-scale load from
// a handful of machines). Honest caveat for this harness: on a single-core
// container both phases share one CPU, so the expected ratio is ~1× (the
// wire protocol must merely not make it worse); >=1.5x needs real
// parallelism — rerun on a multi-core host for the paper-shaped result.
// host_cpus is recorded so the ratio can be judged in context, and with
// host_cpus < 2 the JSON carries "inconclusive": true so downstream
// tooling never reads the ~1x ratio as a scaling measurement.
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/realtime_util.h"
#include "distrib/agent.h"
#include "distrib/controller.h"
#include "net/event_loop.h"
#include "replay/realtime.h"
#include "workload/traces.h"

using namespace ldp;

namespace {

constexpr size_t kRecords = 20000;

std::vector<trace::QueryRecord> MakeTrace(const bench::LoopbackServer& server) {
  workload::FixedIntervalConfig config;
  config.interarrival = Micros(50);  // nominal; fast mode ignores pacing
  config.duration = config.interarrival * static_cast<int64_t>(kRecords);
  config.n_clients = 200;
  auto records = workload::MakeFixedIntervalTrace(config);
  server.Target(records);
  return records;
}

replay::RealtimeConfig BaseConfig(const bench::LoopbackServer& server) {
  replay::RealtimeConfig config;
  config.server = server.endpoint();
  config.fast_mode = true;
  config.n_distributors = 1;
  config.queriers_per_distributor = 3;
  config.query_timeout = Seconds(2);
  return config;
}

struct PhaseResult {
  replay::RealtimeReport counts;
  NanoDuration wall = 0;

  double rate_qps() const {
    return static_cast<double>(counts.queries_sent) / ToSeconds(wall);
  }
};

void PrintPhase(const char* name, const PhaseResult& result) {
  std::printf("  %-8s %8.0f q/s  sent %llu  answered %llu  timed_out %llu"
              "  send_failed %llu  wall %.2f s\n",
              name, result.rate_qps(),
              static_cast<unsigned long long>(result.counts.queries_sent),
              static_cast<unsigned long long>(result.counts.answered),
              static_cast<unsigned long long>(result.counts.timed_out),
              static_cast<unsigned long long>(result.counts.send_failed),
              ToSeconds(result.wall));
}

void SetPhase(bench::BenchJson& json, const std::string& name,
              const PhaseResult& result) {
  json.Set(name + "_qps", result.rate_qps());
  json.Set(name + "_sent", result.counts.queries_sent);
  json.Set(name + "_answered", result.counts.answered);
  json.Set(name + "_timed_out", result.counts.timed_out);
  json.Set(name + "_send_failed", result.counts.send_failed);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "dist", "distributed replay scaling (1 engine vs 2 wire agents)",
      "replay scales across hosts once the single generator saturates");

  auto server = bench::LoopbackServer::Start();
  if (server == nullptr) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }
  const auto records = MakeTrace(*server);

  // Phase 1: one in-process replay engine (the PR-2 path).
  PhaseResult single;
  {
    NanoTime start = MonotonicNow();
    auto report = replay::RunRealtimeReplay(records, BaseConfig(*server));
    NanoDuration elapsed = MonotonicNow() - start;
    if (!report.ok()) {
      std::fprintf(stderr, "single: %s\n", report.error().ToString().c_str());
      return 1;
    }
    single.counts = std::move(*report);
    single.wall = elapsed;
  }
  PrintPhase("single", single);

  // Phase 2: the same trace through the controller → agent protocol, two
  // agents in-process (each on its own event loop thread, exactly what
  // ldp_replay_agent runs per process).
  PhaseResult dist;
  {
    struct Agent {
      std::unique_ptr<net::EventLoop> loop;
      std::unique_ptr<distrib::AgentServer> server;
      std::thread thread;
    };
    std::vector<Agent> agents(2);
    distrib::ControllerOptions options;
    options.config = BaseConfig(*server);
    options.chunk_records = 512;
    for (auto& agent : agents) {
      auto loop = net::EventLoop::Create();
      if (!loop.ok()) {
        std::fprintf(stderr, "loop: %s\n", loop.error().ToString().c_str());
        return 1;
      }
      agent.loop = std::move(*loop);
      auto started =
          distrib::AgentServer::Start(*agent.loop, distrib::AgentOptions{});
      if (!started.ok()) {
        std::fprintf(stderr, "agent: %s\n",
                     started.error().ToString().c_str());
        return 1;
      }
      agent.server = std::move(*started);
      options.agents.push_back(agent.server->local());
      agent.thread = std::thread([raw = agent.loop.get()] { raw->Run(); });
    }

    NanoTime start = MonotonicNow();
    auto report = distrib::RunDistributedReplay(records, options);
    NanoDuration elapsed = MonotonicNow() - start;
    for (auto& agent : agents) agent.thread.join();
    if (!report.ok()) {
      std::fprintf(stderr, "dist: %s\n", report.error().ToString().c_str());
      return 1;
    }
    if (report->failed) {
      std::fprintf(stderr, "dist: %s\n", report->error.c_str());
      return 1;
    }
    for (const auto& diff : report->ReconcileDiffs()) {
      std::fprintf(stderr, "reconcile: %s\n", diff.c_str());
      return 1;
    }
    dist.counts = report->merged();
    dist.wall = elapsed;
  }
  PrintPhase("dist2", dist);

  const double ratio = dist.rate_qps() / single.rate_qps();
  const unsigned host_cpus = std::thread::hardware_concurrency();
  // A scaling ratio measured with every phase pinned to one core says
  // nothing about distribution — flag it rather than report a misleading
  // ~1x as if it were the experiment's answer.
  const bool inconclusive = host_cpus < 2;
  std::printf("  ratio: %.2fx on %u cpu(s)%s\n", ratio, host_cpus,
              inconclusive ? "  [inconclusive: needs >=2 cpus]" : "");

  bench::BenchJson json;
  json.Set("records", static_cast<uint64_t>(kRecords));
  json.Set("host_cpus", static_cast<uint64_t>(host_cpus));
  if (inconclusive) json.Set("inconclusive", true);
  SetPhase(json, "single", single);
  SetPhase(json, "dist2", dist);
  json.Set("ratio", ratio);
  json.Set("note",
           std::string("both phases share the same CPUs; on 1 cpu the "
                       "expected ratio is ~1x — >=1.5x needs a multi-core "
                       "host (or real multi-host agents)"));
  if (!json.WriteTo("BENCH_dist.json")) return 1;
  return 0;
}
