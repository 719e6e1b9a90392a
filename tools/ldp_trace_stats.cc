// ldp-trace-stats: print Table-1-style inventory statistics for a trace
// file — the first thing to run on a new trace — and fold per-agent
// metrics JSONL files into one stream.
//
//   ldp_trace_stats queries.bin
//   ldp_trace_stats --per-client queries.txt
//   ldp_trace_stats merge --out merged.jsonl agent0.jsonl agent1.jsonl
//   ldp_trace_stats --by-site proxy_metrics.jsonl
#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/flags.h"
#include "stats/snapshot_io.h"
#include "trace/binary.h"
#include "trace/tracestats.h"

using namespace ldp;

namespace {

// `merge` subcommand: combine N per-agent snapshot streams row by row
// (counters sum; histograms merge exactly when the files carry buckets).
int RunMerge(const Flags& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr,
                 "usage: ldp_trace_stats merge [--out FILE] A.jsonl B.jsonl"
                 " ...\n");
    return 2;
  }
  std::vector<std::vector<stats::JsonlRow>> streams;
  for (size_t i = 1; i < flags.positional().size(); ++i) {
    auto rows = stats::ReadJsonlFile(flags.positional()[i]);
    if (!rows.ok()) {
      std::fprintf(stderr, "%s\n", rows.error().ToString().c_str());
      return 1;
    }
    streams.push_back(std::move(*rows));
  }
  std::vector<stats::JsonlRow> merged = stats::MergeJsonlStreams(streams);

  std::string out_path = flags.GetString("out", "");
  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "open %s failed\n", out_path.c_str());
      return 1;
    }
  }
  for (const stats::JsonlRow& row : merged) {
    std::string line = stats::FormatJsonlRow(row);
    std::fwrite(line.data(), 1, line.size(), out);
    std::fputc('\n', out);
  }
  if (out != stdout) {
    std::fclose(out);
    std::fprintf(stderr, "merged %zu streams into %zu rows at %s\n",
                 streams.size(), merged.size(), out_path.c_str());
  }
  return 0;
}

// `--by-site` mode: read a proxy metrics JSONL stream and break the final
// cumulative totals down by anycast site (the proxy.site.NAME.* counters
// RegisterRelayMetrics emits when `ldp_proxy --sites` is set) — the
// offline view of a catchment-skew run.
int RunBySite(const std::string& path) {
  auto rows = stats::ReadJsonlFile(path);
  if (!rows.ok()) {
    std::fprintf(stderr, "%s\n", rows.error().ToString().c_str());
    return 1;
  }
  if (rows->empty()) {
    std::fprintf(stderr, "%s: no snapshot rows\n", path.c_str());
    return 1;
  }
  // Counters are cumulative totals; the last row is the run's final state.
  const stats::JsonlRow& last = rows->back();
  struct SiteRow {
    std::string name;
    uint64_t queries = 0;
    uint64_t responses = 0;
  };
  std::vector<SiteRow> sites;
  uint64_t total_queries = 0;
  constexpr std::string_view kPrefix = "proxy.site.";
  for (const auto& [name, cell] : last.counters) {
    if (name.size() <= kPrefix.size() || name.compare(0, kPrefix.size(), kPrefix) != 0) {
      continue;
    }
    std::string_view rest(name);
    rest.remove_prefix(kPrefix.size());
    size_t dot = rest.rfind('.');
    if (dot == std::string_view::npos) continue;
    std::string site(rest.substr(0, dot));
    std::string_view field = rest.substr(dot + 1);
    auto row = std::find_if(sites.begin(), sites.end(), [&](const SiteRow& s) {
      return s.name == site;
    });
    if (row == sites.end()) {
      sites.push_back({site, 0, 0});
      row = std::prev(sites.end());
    }
    if (field == "queries") {
      row->queries = cell.total;
      total_queries += cell.total;
    } else if (field == "responses") {
      row->responses = cell.total;
    }
  }
  if (sites.empty()) {
    std::fprintf(stderr,
                 "%s: no proxy.site.* counters (was the proxy run with "
                 "--sites?)\n",
                 path.c_str());
    return 1;
  }
  std::sort(sites.begin(), sites.end(),
            [](const SiteRow& a, const SiteRow& b) {
              return a.queries > b.queries;
            });
  std::printf("%s — per-site load (%zu rows, final totals)\n", path.c_str(),
              rows->size());
  for (const auto& site : sites) {
    double share = total_queries == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(site.queries) /
                             static_cast<double>(total_queries);
    std::printf("  site %-12s queries %10llu (%5.1f%%)  responses %10llu\n",
                site.name.c_str(),
                static_cast<unsigned long long>(site.queries), share,
                static_cast<unsigned long long>(site.responses));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_result = Flags::Parse(argc, argv, {"per-client", "by-site"});
  if (!flags_result.ok()) {
    std::fprintf(stderr, "%s\n", flags_result.error().ToString().c_str());
    return 2;
  }
  const Flags& flags = *flags_result;
  if (auto s = flags.RequireKnown({"per-client", "by-site", "out", "help"});
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.error().ToString().c_str());
    return 2;
  }
  if (!flags.positional().empty() && flags.positional()[0] == "merge") {
    return RunMerge(flags);
  }
  if (flags.GetBool("help", false) || flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: ldp_trace_stats [--per-client] FILE(.txt|.bin)\n"
                 "       ldp_trace_stats merge [--out FILE] A.jsonl ...\n"
                 "       ldp_trace_stats --by-site METRICS.jsonl\n");
    return 2;
  }
  if (flags.GetBool("by-site", false)) {
    return RunBySite(flags.positional()[0]);
  }
  const std::string& path = flags.positional()[0];

  Result<std::vector<trace::QueryRecord>> records =
      trace::ReadTraceFile(path);
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.error().ToString().c_str());
    return 1;
  }

  auto stats = trace::ComputeTraceStats(*records);
  std::printf("%s\n", path.c_str());
  std::printf("  records:            %zu\n", stats.records);
  std::printf("  duration:           %.3f s\n", ToSeconds(stats.duration));
  std::printf("  client IPs:         %zu\n", stats.unique_clients);
  std::printf("  inter-arrival:      %.6f s +- %.6f s\n",
              stats.interarrival_mean_s, stats.interarrival_stddev_s);
  std::printf("  mean rate:          %.1f q/s\n", stats.mean_rate_qps);
  std::printf("  DO-bit fraction:    %.1f%%\n", 100 * stats.fraction_do);
  std::printf("  TCP/TLS fraction:   %.1f%%\n", 100 * stats.fraction_tcp);

  if (flags.GetBool("per-client", false) && !records->empty()) {
    std::unordered_map<IpAddress, size_t> loads;
    for (const auto& record : *records) ++loads[record.src];
    std::vector<size_t> counts;
    counts.reserve(loads.size());
    for (const auto& [src, count] : loads) counts.push_back(count);
    std::sort(counts.rbegin(), counts.rend());
    size_t total = records->size();
    std::printf("  per-client load:\n");
    for (double fraction : {0.01, 0.05, 0.2}) {
      size_t n = std::max<size_t>(
          1, static_cast<size_t>(fraction *
                                 static_cast<double>(counts.size())));
      size_t share = 0;
      for (size_t i = 0; i < n; ++i) share += counts[i];
      std::printf("    top %4.1f%% of clients: %.1f%% of queries\n",
                  100 * fraction,
                  100.0 * static_cast<double>(share) /
                      static_cast<double>(total));
    }
    size_t quiet = 0;
    for (size_t c : counts) quiet += c < 10 ? 1 : 0;
    std::printf("    clients with <10 queries: %.1f%%\n",
                100.0 * static_cast<double>(quiet) /
                    static_cast<double>(counts.size()));
  }
  return 0;
}
