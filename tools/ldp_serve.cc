// ldp-serve: an authoritative DNS server over real sockets, serving one or
// more master files — the server side of a loopback replay experiment.
//
//   ldp_serve --listen 127.0.0.1:5353 zones/root.zone zones/com.zone
//   ldp_serve --listen 127.0.0.1:5353 --threads 4 --response-cache 4096 z.db
//   ldp_serve --listen 127.0.0.1:5353 --views hierarchy/views.txt
#include <csignal>
#include <cstdint>
#include <cstdio>

#include "common/flags.h"
#include "server/sharded_server.h"
#include "stats/metrics.h"
#include "zone/dnssec.h"
#include "zone/manifest.h"
#include "zone/masterfile.h"

using namespace ldp;

namespace {

constexpr const char* kUsage =
    R"(usage: ldp_serve --listen IP:PORT [options] ZONEFILE...
       ldp_serve --listen IP:PORT [options] --views MANIFEST
  --views FILE             split-horizon views manifest (zone selection by
                           query source address, paper-style meta server);
                           replaces positional zone files
  --threads N              UDP worker shards, SO_REUSEPORT, in [0, 1024]
                           (1; 0 = all cores)
  --response-cache N       wire-level response cache, N entries/shard, in
                           [0, 16777216] (0 = off)
  --udp-rcvbuf-bytes N     SO_RCVBUF per shard socket (0 = kernel default)
  --tcp-idle-timeout-s N   close idle TCP connections after N seconds, in
                           [0, 86400] (20; 0 = never)
  --no-tcp                 UDP only
  --tls                    also serve DNS-over-TLS (needs an OpenSSL build;
                           probe with ldp_datapath_probe --tls)
  --tls-port N             DoT listener port (0 = ephemeral, printed)
  --max-tcp-conns N        per-shard cap on open TCP+TLS connections; at the
                           cap new accepts are closed and counted
                           (server.tcp_accept_rejected); in
                           [0, 16777216] (0 = unbounded)
  --sign                   DNSSEC-sign zones with synthetic keys
  --zsk-bits N             ZSK size when signing, in [512, 4096] (1024)
  --stats-interval-s N     print server stats every N seconds, in
                           [0, 86400] (10; 0 = off)
  --metrics-out FILE       append JSONL metric snapshots to FILE
  --metrics-interval-ms N  snapshot cadence in milliseconds, in
                           [1, 86400000] (1000)
Serves until interrupted.)";

net::EventLoop* g_loop = nullptr;

// RequestStop is an eventfd write: async-signal-safe, unlike Stop().
void HandleSignal(int) {
  if (g_loop != nullptr) g_loop->RequestStop();
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_result = Flags::Parse(argc, argv, {"no-tcp", "sign", "tls"});
  if (!flags_result.ok()) {
    std::fprintf(stderr, "%s\n", flags_result.error().ToString().c_str());
    return 2;
  }
  const Flags& flags = *flags_result;
  if (auto s = flags.RequireKnown({"listen", "views", "threads",
                                   "response-cache", "udp-rcvbuf-bytes",
                                   "tcp-idle-timeout-s", "no-tcp", "tls",
                                   "tls-port", "max-tcp-conns", "sign",
                                   "zsk-bits", "stats-interval-s",
                                   "metrics-out", "metrics-interval-ms",
                                   "help"});
      !s.ok()) {
    std::fprintf(stderr, "%s\n%s\n", s.error().ToString().c_str(), kUsage);
    return 2;
  }
  std::string views_path = flags.GetString("views", "");
  if (flags.GetBool("help", false) || !flags.Has("listen") ||
      (flags.positional().empty() == views_path.empty())) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }

  auto listen = Endpoint::Parse(flags.GetString("listen", ""));
  if (!listen.ok()) {
    std::fprintf(stderr, "%s\n", listen.error().ToString().c_str());
    return 2;
  }

  // Strict parsing, before any zone loads or socket binds: a value that
  // does not parse or lies outside its range exits 2 by flag name (falling
  // back to one shard would let "--threads abc" masquerade as a multi-core
  // experiment).
  const auto threads = flags.GetIntInRange("threads", 1, 0, 1024);
  const auto cache_entries =
      flags.GetIntInRange("response-cache", 0, 0, 1 << 24);
  const auto rcvbuf =
      flags.GetIntInRange("udp-rcvbuf-bytes", 0, 0, INT32_MAX);
  const auto tcp_idle_timeout_s =
      flags.GetIntInRange("tcp-idle-timeout-s", 20, 0, 86'400);
  const auto tls_port = flags.GetIntInRange("tls-port", 0, 0, 65535);
  const auto max_tcp_conns =
      flags.GetIntInRange("max-tcp-conns", 0, 0, 1 << 24);
  const auto zsk_bits = flags.GetIntInRange("zsk-bits", 1024, 512, 4096);
  const auto stats_interval_s =
      flags.GetIntInRange("stats-interval-s", 10, 0, 86'400);
  const auto metrics_interval_ms =
      flags.GetIntInRange("metrics-interval-ms", 1000, 1, 86'400'000);
  for (const auto* value :
       {&threads, &cache_entries, &rcvbuf, &tcp_idle_timeout_s, &tls_port,
        &max_tcp_conns, &zsk_bits, &stats_interval_s, &metrics_interval_ms}) {
    if (!value->ok()) {
      std::fprintf(stderr, "%s\n", value->error().ToString().c_str());
      return 2;
    }
  }

  std::shared_ptr<const zone::ViewTable> shared_views;
  if (!views_path.empty()) {
    auto manifest = zone::LoadViewManifest(views_path);
    if (!manifest.ok()) {
      std::fprintf(stderr, "%s\n", manifest.error().ToString().c_str());
      return 1;
    }
    // Zone paths in the manifest are relative to the manifest itself.
    size_t slash = views_path.find_last_of('/');
    std::string base_dir =
        slash == std::string::npos ? "" : views_path.substr(0, slash);
    auto table = zone::BuildViewTable(*manifest, base_dir);
    if (!table.ok()) {
      std::fprintf(stderr, "%s\n", table.error().ToString().c_str());
      return 1;
    }
    shared_views = std::move(*table);
    std::printf("loaded %zu views from %s\n", shared_views->view_count(),
                views_path.c_str());
  } else {
    zone::ZoneSet zones;
    for (const auto& path : flags.positional()) {
      auto zone = zone::LoadMasterFile(path, zone::MasterFileOptions{});
      if (!zone.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     zone.error().ToString().c_str());
        return 1;
      }
      if (flags.GetBool("sign", false)) {
        zone::DnssecConfig dnssec;
        dnssec.zsk_bits = static_cast<int>(*zsk_bits);
        if (auto s = zone::SignZone(*zone, dnssec); !s.ok()) {
          std::fprintf(stderr, "sign %s: %s\n", path.c_str(),
                       s.error().ToString().c_str());
          return 1;
        }
      }
      if (auto s = zone->Validate(); !s.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     s.error().ToString().c_str());
        return 1;
      }
      std::printf("loaded %s (%zu records) from %s\n",
                  zone->origin().ToString().c_str(), zone->record_count(),
                  path.c_str());
      auto added =
          zones.AddZone(std::make_shared<zone::Zone>(std::move(*zone)));
      if (!added.ok()) {
        std::fprintf(stderr, "%s\n", added.error().ToString().c_str());
        return 1;
      }
    }
    zone::ViewTable views;
    views.SetDefaultView(std::move(zones));
    shared_views = std::make_shared<const zone::ViewTable>(std::move(views));
  }

  // Main-thread loop: signal wakeup + periodic stats. The shards run their
  // own loops on worker threads.
  auto loop = net::EventLoop::Create();
  if (!loop.ok()) {
    std::fprintf(stderr, "%s\n", loop.error().ToString().c_str());
    return 1;
  }
  g_loop = loop->get();
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Live metrics: the registry outlives the server (declared before it, so
  // destroyed after); the snapshotter runs off this main-thread loop.
  stats::MetricsRegistry metrics;
  std::string metrics_out = flags.GetString("metrics-out", "");
  std::unique_ptr<stats::MetricsSnapshotter> snapshotter;
  if (!metrics_out.empty()) {
    stats::MetricsSnapshotter::Options opts;
    opts.path = metrics_out;
    opts.interval = Millis(*metrics_interval_ms);
    snapshotter =
        std::make_unique<stats::MetricsSnapshotter>(metrics, opts);
    if (auto s = snapshotter->Open(); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.error().ToString().c_str());
      return 1;
    }
  }

  server::ShardedDnsServer::Config config;
  config.listen = *listen;
  config.n_shards = static_cast<size_t>(*threads);
  config.serve_tcp = !flags.GetBool("no-tcp", false);
  config.serve_tls = flags.GetBool("tls", false);
  config.tls_port = static_cast<uint16_t>(*tls_port);
  config.max_tcp_connections = static_cast<size_t>(*max_tcp_conns);
  config.tcp_idle_timeout = Seconds(*tcp_idle_timeout_s);
  config.engine.response_cache_entries =
      static_cast<size_t>(*cache_entries);
  config.udp_recv_buffer_bytes = static_cast<int>(*rcvbuf);
  if (snapshotter != nullptr) config.metrics = &metrics;
  auto server = server::ShardedDnsServer::Start(shared_views, config);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.error().ToString().c_str());
    return 1;
  }
  std::printf("serving on %s (udp%s%s, %zu shard%s, cache %zu/shard), "
              "^C to stop\n",
              (*server)->endpoint().ToString().c_str(),
              config.serve_tcp ? "+tcp" : "",
              config.serve_tls ? "+tls" : "", (*server)->n_shards(),
              (*server)->n_shards() == 1 ? "" : "s",
              config.engine.response_cache_entries);
  if (config.serve_tls) {
    std::printf("tls on %s\n", (*server)->tls_endpoint().ToString().c_str());
  }
  // The port lines are what drive scripted runs (verify.sh parses them),
  // so push them out even when stdout is a pipe.
  std::fflush(stdout);

  const int64_t stats_interval = *stats_interval_s;
  std::function<void()> print_stats = [&]() {
    server::EngineStats stats = (*server)->TotalStats();
    std::printf("queries=%llu nxdomain=%llu refused=%llu truncated=%llu "
                "bytes-out=%llu cache-hit=%llu cache-miss=%llu\n",
                static_cast<unsigned long long>(stats.queries),
                static_cast<unsigned long long>(stats.nxdomain),
                static_cast<unsigned long long>(stats.refused),
                static_cast<unsigned long long>(stats.truncated),
                static_cast<unsigned long long>(stats.response_bytes),
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_misses));
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
  (*server)->Stop();
  // Final row after the shards stopped: totals match the shutdown report.
  if (snapshotter != nullptr) snapshotter->WriteNow();
  std::printf("\nshutting down after %llu queries\n",
              static_cast<unsigned long long>(
                  (*server)->TotalStats().queries));
  return 0;
}
