// ldp-make-workload: generate synthetic DNS workloads calibrated to the
// paper's trace inventory (Table 1).
//
//   ldp_make_workload --model broot --rate 3800 --duration 60 --out t.bin
//   ldp_make_workload --model fixed --interarrival-us 1000 --duration 60
//       --out syn3.txt   (one command, wrapped here)
//   ldp_make_workload --model recursive --records 20000 --out rec.bin
#include <cstdio>

#include "common/flags.h"
#include "common/strings.h"
#include "trace/binary.h"
#include "trace/text.h"
#include "trace/tracestats.h"
#include "workload/traces.h"

using namespace ldp;

namespace {

constexpr const char* kUsage =
    R"(usage: ldp_make_workload --model broot|fixed|recursive --out FILE
  common:     [--duration SECONDS] [--seed N] [--server IP]
  broot:      [--rate QPS] [--clients N] [--do-fraction F] [--tcp-fraction F]
              [--nxdomain-fraction F] [--tlds N]
  fixed:      [--interarrival-us MICROS] [--clients N]
  recursive:  [--records N] [--interarrival-s SECONDS] [--clients N]
              [--tlds N] [--slds N]
Output format by extension: .txt (editable) or .bin (replay input).)";

}  // namespace

int main(int argc, char** argv) {
  auto flags_result = Flags::Parse(argc, argv);
  if (!flags_result.ok()) {
    std::fprintf(stderr, "%s\n", flags_result.error().ToString().c_str());
    return 2;
  }
  const Flags& flags = *flags_result;
  if (auto s = flags.RequireKnown(
          {"model", "out", "duration", "seed", "server", "rate", "clients",
           "do-fraction", "tcp-fraction", "nxdomain-fraction", "tlds",
           "interarrival-us", "records", "interarrival-s", "slds", "help"});
      !s.ok()) {
    std::fprintf(stderr, "%s\n%s\n", s.error().ToString().c_str(), kUsage);
    return 2;
  }
  std::string model = flags.GetString("model", "");
  std::string out = flags.GetString("out", "");
  if (model.empty() || out.empty() || flags.GetBool("help", false)) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }

  auto geti = [&](const char* key, int64_t fallback) {
    return flags.GetInt(key, fallback).value_or(fallback);
  };
  auto getd = [&](const char* key, double fallback) {
    return flags.GetDouble(key, fallback).value_or(fallback);
  };
  auto server = IpAddress::Parse(flags.GetString("server", "10.0.0.1"));
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.error().ToString().c_str());
    return 2;
  }

  std::vector<trace::QueryRecord> records;
  if (model == "broot") {
    workload::BRootConfig config;
    config.median_rate_qps = getd("rate", 3800);
    config.duration = Seconds(geti("duration", 60));
    config.n_clients = static_cast<size_t>(geti("clients", 20000));
    config.do_fraction = getd("do-fraction", config.do_fraction);
    config.tcp_fraction = getd("tcp-fraction", config.tcp_fraction);
    config.nxdomain_fraction =
        getd("nxdomain-fraction", config.nxdomain_fraction);
    config.n_tlds = static_cast<size_t>(geti("tlds", 100));
    config.seed = static_cast<uint64_t>(geti("seed", 1));
    config.server = *server;
    records = workload::MakeBRootTrace(config);
  } else if (model == "fixed") {
    workload::FixedIntervalConfig config;
    config.interarrival = Micros(geti("interarrival-us", 1000));
    config.duration = Seconds(geti("duration", 60));
    config.n_clients = static_cast<size_t>(geti("clients", 10000));
    config.seed = static_cast<uint64_t>(geti("seed", 7));
    config.server = *server;
    records = workload::MakeFixedIntervalTrace(config);
  } else if (model == "recursive") {
    workload::HierarchyConfig hconfig;
    hconfig.n_tlds = static_cast<size_t>(geti("tlds", 20));
    hconfig.n_slds_per_tld = static_cast<size_t>(geti("slds", 27));
    auto hierarchy = workload::BuildHierarchy(hconfig);
    workload::RecConfig config;
    config.n_records = static_cast<size_t>(geti("records", 20000));
    config.mean_interarrival_s = getd("interarrival-s", 0.18);
    config.n_clients = static_cast<size_t>(geti("clients", 91));
    config.seed = static_cast<uint64_t>(geti("seed", 17));
    config.server = *server;
    records = workload::MakeRecursiveTrace(config, hierarchy);
  } else {
    std::fprintf(stderr, "unknown --model %s\n%s\n", model.c_str(), kUsage);
    return 2;
  }

  Status saved = EndsWith(out, ".txt")
                     ? trace::WriteTextTraceFile(records, out)
                     : trace::WriteBinaryTraceFile(records, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.error().ToString().c_str());
    return 1;
  }
  auto stats = trace::ComputeTraceStats(records);
  std::printf("%zu queries -> %s\n", records.size(), out.c_str());
  std::printf("duration %.1fs, %zu clients, mean rate %.0f q/s, "
              "ia %.6f+-%.6fs, DO %.1f%%, TCP %.1f%%\n",
              ToSeconds(stats.duration), stats.unique_clients,
              stats.mean_rate_qps, stats.interarrival_mean_s,
              stats.interarrival_stddev_s, 100 * stats.fraction_do,
              100 * stats.fraction_tcp);
  return 0;
}
