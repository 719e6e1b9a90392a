// ldp-make-workload: generate synthetic DNS workloads calibrated to the
// paper's trace inventory (Table 1).
//
//   ldp_make_workload --model broot --rate 3800 --duration 60 --out t.bin
//   ldp_make_workload --model fixed --interarrival-us 1000 --duration 60
//       --out syn3.txt   (one command, wrapped here)
//   ldp_make_workload --model recursive --records 20000 --out rec.bin
#include <cstdint>
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
Integer ranges: --duration [0, 31536000], --seed [0, 2^63-1], --clients
[1, 16777216], --tlds [1, 10000], --slds [0, 10000], --interarrival-us
[1, 86400000000], --records [0, 2^30]. Real ranges: --rate (0, 1e7],
--do-fraction, --tcp-fraction and --nxdomain-fraction [0, 1],
--interarrival-s (0, 86400].
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

  const bool broot = model == "broot";
  const bool fixed = model == "fixed";
  if (!broot && !fixed && model != "recursive") {
    std::fprintf(stderr, "unknown --model %s\n%s\n", model.c_str(), kUsage);
    return 2;
  }
  // Numeric flags, with each model's defaults: a value that does not parse
  // or lies outside its range exits 2 by flag name.
  const auto duration_s = flags.GetIntInRange("duration", 60, 0, 31'536'000);
  const auto seed =
      flags.GetIntInRange("seed", broot ? 1 : fixed ? 7 : 17, 0, INT64_MAX);
  const auto clients = flags.GetIntInRange(
      "clients", broot ? 20000 : fixed ? 10000 : 91, 1, 1 << 24);
  const auto tlds = flags.GetIntInRange("tlds", broot ? 100 : 20, 1, 10'000);
  const auto slds = flags.GetIntInRange("slds", 27, 0, 10'000);
  const auto interarrival_us =
      flags.GetIntInRange("interarrival-us", 1000, 1, 86'400'000'000);
  const auto n_records = flags.GetIntInRange("records", 20000, 0, 1 << 30);
  for (const auto* value : {&duration_s, &seed, &clients, &tlds, &slds,
                            &interarrival_us, &n_records}) {
    if (!value->ok()) {
      std::fprintf(stderr, "%s\n", value->error().ToString().c_str());
      return 2;
    }
  }
  const workload::BRootConfig broot_defaults;
  const auto rate = flags.GetDoubleInRange("rate", 3800, 0, 1e7, true);
  const auto do_fraction =
      flags.GetDoubleInRange("do-fraction", broot_defaults.do_fraction, 0, 1);
  const auto tcp_fraction = flags.GetDoubleInRange(
      "tcp-fraction", broot_defaults.tcp_fraction, 0, 1);
  const auto nxdomain_fraction = flags.GetDoubleInRange(
      "nxdomain-fraction", broot_defaults.nxdomain_fraction, 0, 1);
  const auto interarrival_s =
      flags.GetDoubleInRange("interarrival-s", 0.18, 0, 86'400, true);
  for (const auto* value : {&rate, &do_fraction, &tcp_fraction,
                            &nxdomain_fraction, &interarrival_s}) {
    if (!value->ok()) {
      std::fprintf(stderr, "%s\n", value->error().ToString().c_str());
      return 2;
    }
  }
  auto server = IpAddress::Parse(flags.GetString("server", "10.0.0.1"));
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.error().ToString().c_str());
    return 2;
  }

  std::vector<trace::QueryRecord> records;
  if (broot) {
    workload::BRootConfig config;
    config.median_rate_qps = *rate;
    config.duration = Seconds(*duration_s);
    config.n_clients = static_cast<size_t>(*clients);
    config.do_fraction = *do_fraction;
    config.tcp_fraction = *tcp_fraction;
    config.nxdomain_fraction = *nxdomain_fraction;
    config.n_tlds = static_cast<size_t>(*tlds);
    config.seed = static_cast<uint64_t>(*seed);
    config.server = *server;
    records = workload::MakeBRootTrace(config);
  } else if (fixed) {
    workload::FixedIntervalConfig config;
    config.interarrival = Micros(*interarrival_us);
    config.duration = Seconds(*duration_s);
    config.n_clients = static_cast<size_t>(*clients);
    config.seed = static_cast<uint64_t>(*seed);
    config.server = *server;
    records = workload::MakeFixedIntervalTrace(config);
  } else {
    workload::HierarchyConfig hconfig;
    hconfig.n_tlds = static_cast<size_t>(*tlds);
    hconfig.n_slds_per_tld = static_cast<size_t>(*slds);
    auto hierarchy = workload::BuildHierarchy(hconfig);
    workload::RecConfig config;
    config.n_records = static_cast<size_t>(*n_records);
    config.mean_interarrival_s = *interarrival_s;
    config.n_clients = static_cast<size_t>(*clients);
    config.seed = static_cast<uint64_t>(*seed);
    config.server = *server;
    records = workload::MakeRecursiveTrace(config, hierarchy);
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
