// Figure 6: query-time error between replayed and original traces (real
// sockets, real time, loopback): quartiles, min, max per trace.
//
// Paper result: quartiles usually within ±2.5 ms, worst (syn-1, 0.1 s
// inter-arrival) ±8 ms; min/max within ±17 ms.
//
// Writes BENCH_fig6.json in the working directory: per trace (keys
// prefixed broot_, syn0_ … syn4_) the query count and the error's min,
// quartiles and max in ms, plus host_cpus.
#include <thread>

#include "bench/bench_util.h"
#include "bench/realtime_util.h"
#include "workload/traces.h"

using namespace ldp;

namespace {

struct TraceSpec {
  std::string name;
  std::string key;  // JSON key prefix
  std::vector<trace::QueryRecord> records;
};

}  // namespace

int main() {
  bench::PrintHeader("Figure 6",
                     "query timing error of replay vs original trace",
                     "quartiles within +-2.5ms (worst +-8ms at 0.1s "
                     "inter-arrival); min/max within +-17ms");

  auto server = bench::LoopbackServer::Start();
  if (server == nullptr) {
    std::fprintf(stderr, "cannot start loopback server\n");
    return 1;
  }

  std::vector<TraceSpec> specs;
  {
    auto config = bench::ScaledBRootConfig(Seconds(10));
    specs.push_back({"B-Root*", "broot", workload::MakeBRootTrace(config)});
  }
  struct Syn {
    const char* name;
    const char* key;
    NanoDuration interarrival;
    NanoDuration duration;
  };
  for (const Syn& syn :
       {Syn{"syn-0 (1s)", "syn0", Seconds(1), Seconds(20)},
        Syn{"syn-1 (0.1s)", "syn1", Millis(100), Seconds(12)},
        Syn{"syn-2 (10ms)", "syn2", Millis(10), Seconds(8)},
        Syn{"syn-3 (1ms)", "syn3", Millis(1), Seconds(8)},
        Syn{"syn-4 (0.1ms)", "syn4", Micros(100), Seconds(8)}}) {
    workload::FixedIntervalConfig config;
    config.interarrival = syn.interarrival;
    config.duration = syn.duration;
    specs.push_back(
        {syn.name, syn.key, workload::MakeFixedIntervalTrace(config)});
  }

  bench::BenchJson json;
  json.Set("figure", std::string("fig6"));
  json.Set("host_cpus",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));

  stats::Table table({"trace", "queries", "min ms", "p25 ms", "median ms",
                      "p75 ms", "max ms"});
  for (auto& spec : specs) {
    server->Target(spec.records);
    replay::RealtimeConfig config;
    config.server = server->endpoint();
    config.n_distributors = 2;
    config.queriers_per_distributor = 2;
    auto report = replay::RunRealtimeReplay(spec.records, config);
    if (!report.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   report.error().ToString().c_str());
      continue;
    }
    // The paper ignores the first 20 s (startup transients); at our scale
    // skip the first 5% of queries.
    stats::Summary summary;
    summary.AddAll(report->TimingErrorsMs(spec.records.size() / 20));
    auto d = summary.Summarize();
    table.AddRow({spec.name, std::to_string(d.count), FormatDouble(d.min, 3),
                  FormatDouble(d.p25, 3), FormatDouble(d.p50, 3),
                  FormatDouble(d.p75, 3), FormatDouble(d.max, 3)});
    json.Set(spec.key + "_queries", static_cast<uint64_t>(d.count));
    json.Set(spec.key + "_min_ms", d.min);
    json.Set(spec.key + "_p25_ms", d.p25);
    json.Set(spec.key + "_median_ms", d.p50);
    json.Set(spec.key + "_p75_ms", d.p75);
    json.Set(spec.key + "_max_ms", d.max);
  }
  std::printf("%s\n(loopback; replay and server share the host's CPUs, the "
              "paper used dedicated DETER hosts)\n",
              table.Render().c_str());
  return json.WriteTo("BENCH_fig6.json") ? 0 : 1;
}
