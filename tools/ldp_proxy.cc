// ldp_proxy: real-socket hierarchy-emulation proxy (paper §2.4). Listens
// on every local address at one service port, takes queries to the
// emulated nameserver addresses (from a views manifest or an explicit
// list), rewrites them toward the meta server with the OQDA as their
// source, and relays replies back — the loopback stand-in for the paper's
// TUN/iptables capture. See src/proxy/relay.h and DESIGN.md.
//
//   ldp_proxy --meta 127.0.0.1:5353 --views hierarchy/views.txt --port 5454
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "net/event_loop.h"
#include "proxy/relay.h"
#include "stats/metrics.h"
#include "zone/manifest.h"

using namespace ldp;

namespace {

constexpr const char* kUsage =
    R"(usage: ldp_proxy --meta IP:PORT --views MANIFEST [options]
       ldp_proxy --meta IP:PORT --addresses A,B,... [options]
  --meta IP:PORT           the meta-DNS-server queries are rewritten toward
  --views FILE             emulate every view source address in this manifest
  --addresses A,B,...      emulate an explicit comma-separated address list
  --loopback-alias         remap emulated addresses into 127/8 (LoopbackAlias)
                           so they are bindable without interface config
  --port N                 shared service port across all addresses, taken
                           on every local address (0 = ephemeral; the
                           resolved port is printed)
  --threads N              relay shards, SO_REUSEPORT, in [1, 1024] (1)
  --no-tcp                 UDP only (no TCP splice)
  --sites NAME:RTT,...     emulate anycast sites (e.g. lax:0,ams:80); each
                           site delays UDP replies by RTT ms and counts its
                           load under proxy.site.NAME.* metrics
  --catchment FILE         client-prefix -> site map ("route P/LEN SITE",
                           "default SITE" lines); requires --sites
  --udp-rcvbuf-bytes N     SO_RCVBUF per shard socket (0 = kernel default)
  --stats-interval-s N     print relay stats every N seconds, in [0, 86400]
                           (10; 0=off)
  --metrics-out FILE       append JSONL metric snapshots to FILE
  --metrics-interval-ms N  snapshot cadence in milliseconds, in
                           [1, 86400000] (1000)
Relays until interrupted.)";

net::EventLoop* g_loop = nullptr;

// RequestStop is an eventfd write: async-signal-safe, unlike Stop().
void HandleSignal(int) {
  if (g_loop != nullptr) g_loop->RequestStop();
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_result = Flags::Parse(argc, argv, {"loopback-alias", "no-tcp"});
  if (!flags_result.ok()) {
    std::fprintf(stderr, "%s\n", flags_result.error().ToString().c_str());
    return 2;
  }
  const Flags& flags = *flags_result;
  if (auto s = flags.RequireKnown(
          {"meta", "views", "addresses", "loopback-alias", "port", "threads",
           "no-tcp", "sites", "catchment", "udp-rcvbuf-bytes",
           "stats-interval-s", "metrics-out", "metrics-interval-ms", "help"});
      !s.ok()) {
    std::fprintf(stderr, "%s\n%s\n", s.error().ToString().c_str(), kUsage);
    return 2;
  }
  std::string views_path = flags.GetString("views", "");
  std::string addresses_arg = flags.GetString("addresses", "");
  if (flags.GetBool("help", false) || !flags.Has("meta") ||
      (views_path.empty() == addresses_arg.empty())) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }

  auto meta = Endpoint::Parse(flags.GetString("meta", ""));
  if (!meta.ok()) {
    std::fprintf(stderr, "--meta: %s\n", meta.error().ToString().c_str());
    return 2;
  }
  // Read before any socket is bound: a value that does not parse or lies
  // outside its range exits 2 by flag name.
  const auto port = flags.GetIntInRange("port", 0, 0, 65535);
  const auto threads = flags.GetIntInRange("threads", 1, 1, 1024);
  const auto rcvbuf =
      flags.GetIntInRange("udp-rcvbuf-bytes", 0, 0, INT32_MAX);
  const auto metrics_interval_ms =
      flags.GetIntInRange("metrics-interval-ms", 1000, 1, 86'400'000);
  const auto stats_interval_s =
      flags.GetIntInRange("stats-interval-s", 10, 0, 86'400);
  for (const auto* value :
       {&port, &threads, &rcvbuf, &metrics_interval_ms, &stats_interval_s}) {
    if (!value->ok()) {
      std::fprintf(stderr, "%s\n", value->error().ToString().c_str());
      return 2;
    }
  }

  std::vector<IpAddress> addresses;
  if (!views_path.empty()) {
    auto manifest = zone::LoadViewManifest(views_path);
    if (!manifest.ok()) {
      std::fprintf(stderr, "%s\n", manifest.error().ToString().c_str());
      return 1;
    }
    addresses = zone::ManifestSources(*manifest);
  } else {
    size_t start = 0;
    while (start <= addresses_arg.size()) {
      size_t comma = addresses_arg.find(',', start);
      std::string token = addresses_arg.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start);
      start = comma == std::string::npos ? addresses_arg.size() + 1
                                         : comma + 1;
      if (token.empty()) continue;
      auto addr = IpAddress::Parse(token);
      if (!addr.ok()) {
        std::fprintf(stderr, "--addresses: %s\n",
                     addr.error().ToString().c_str());
        return 2;
      }
      addresses.push_back(*addr);
    }
  }
  if (addresses.empty()) {
    std::fprintf(stderr, "no addresses to emulate\n");
    return 1;
  }
  if (flags.GetBool("loopback-alias", false)) {
    for (auto& addr : addresses) addr = LoopbackAlias(addr);
  }

  auto loop = net::EventLoop::Create();
  if (!loop.ok()) {
    std::fprintf(stderr, "%s\n", loop.error().ToString().c_str());
    return 1;
  }
  g_loop = loop->get();
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Registry before the proxy: the relay's cells live there, and the final
  // snapshot after Stop() reads them.
  stats::MetricsRegistry metrics;
  std::string metrics_out = flags.GetString("metrics-out", "");
  std::unique_ptr<stats::MetricsSnapshotter> snapshotter;
  if (!metrics_out.empty()) {
    stats::MetricsSnapshotter::Options opts;
    opts.path = metrics_out;
    opts.interval = Millis(*metrics_interval_ms);
    snapshotter = std::make_unique<stats::MetricsSnapshotter>(metrics, opts);
    if (auto s = snapshotter->Open(); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.error().ToString().c_str());
      return 1;
    }
  }

  proxy::RelayConfig config;
  config.addresses = addresses;
  config.port = static_cast<uint16_t>(*port);
  config.meta_server = *meta;
  config.n_shards = static_cast<size_t>(*threads);
  config.udp_recv_buffer_bytes = static_cast<int>(*rcvbuf);
  config.splice_tcp = !flags.GetBool("no-tcp", false);
  if (flags.Has("sites")) {
    auto sites = proxy::ParseSiteSpecs(flags.GetString("sites", ""));
    if (!sites.ok()) {
      std::fprintf(stderr, "--sites: %s\n", sites.error().ToString().c_str());
      return 2;
    }
    config.sites = std::move(*sites);
    if (flags.Has("catchment")) {
      auto catchment = proxy::CatchmentMap::Load(
          flags.GetString("catchment", ""), config.sites);
      if (!catchment.ok()) {
        std::fprintf(stderr, "--catchment: %s\n",
                     catchment.error().ToString().c_str());
        return 2;
      }
      config.catchment = std::move(*catchment);
    }
  } else if (flags.Has("catchment")) {
    std::fprintf(stderr, "--catchment requires --sites\n");
    return 2;
  }
  if (snapshotter != nullptr) config.metrics = &metrics;

  auto relay = proxy::HierarchyProxy::Start(config);
  if (!relay.ok()) {
    std::fprintf(stderr, "%s\n", relay.error().ToString().c_str());
    return 1;
  }
  std::printf("proxying %zu addresses on port %u -> meta %s "
              "(udp%s, %zu shard%s), ^C to stop\n",
              addresses.size(), (*relay)->port(),
              meta->ToString().c_str(), config.splice_tcp ? "+tcp" : "",
              (*relay)->n_shards(), (*relay)->n_shards() == 1 ? "" : "s");
  if (!config.sites.empty()) {
    std::printf("anycast sites:");
    for (const auto& site : config.sites) {
      std::printf(" %s(rtt %.1fms)", site.name.c_str(), ToMillis(site.rtt));
    }
    std::printf(" — %zu catchment route%s\n", config.catchment.route_count(),
                config.catchment.route_count() == 1 ? "" : "s");
  }
  // The port line drives scripted runs (verify.sh parses it), so push it
  // out even when stdout is a pipe.
  std::fflush(stdout);

  const int64_t stats_interval = *stats_interval_s;
  std::function<void()> print_stats = [&]() {
    proxy::RelayStats stats = (*relay)->TotalStats();
    std::printf("queries=%llu responses=%llu rewritten=%llu pending=%lld "
                "reclaimed=%llu evicted-drops=%llu "
                "tcp-queries=%llu tcp-reconnects=%llu\n",
                static_cast<unsigned long long>(stats.queries_in),
                static_cast<unsigned long long>(stats.responses_out),
                static_cast<unsigned long long>(stats.rewritten),
                static_cast<long long>(stats.pending),
                static_cast<unsigned long long>(stats.reclaimed),
                static_cast<unsigned long long>(stats.evicted_drops),
                static_cast<unsigned long long>(stats.tcp_queries),
                static_cast<unsigned long long>(stats.tcp_reconnects));
    (*loop)->ScheduleAfter(Seconds(stats_interval), print_stats);
  };
  if (stats_interval > 0) {
    (*loop)->ScheduleAfter(Seconds(stats_interval), print_stats);
  }

  std::function<void()> write_snapshot = [&]() {
    snapshotter->WriteNow();
    (*loop)->ScheduleAfter(snapshotter->interval(), write_snapshot);
  };
  if (snapshotter != nullptr) {
    (*loop)->ScheduleAfter(snapshotter->interval(), write_snapshot);
  }

  (*loop)->Run();
  (*relay)->Stop();
  // Final row after the shards stopped: totals match the shutdown report.
  if (snapshotter != nullptr) snapshotter->WriteNow();
  proxy::RelayStats stats = (*relay)->TotalStats();
  std::printf("\nshutting down after %llu queries (%llu responses relayed)\n",
              static_cast<unsigned long long>(stats.queries_in),
              static_cast<unsigned long long>(stats.responses_out));
  for (const auto& site : stats.sites) {
    std::printf("site %s: queries=%llu responses=%llu\n", site.name.c_str(),
                static_cast<unsigned long long>(site.queries_in),
                static_cast<unsigned long long>(site.responses_out));
  }
  return 0;
}
