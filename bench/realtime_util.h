// Helpers for the real-socket fidelity benches (Figs 6-9): a loopback
// authoritative server with a wildcard zone (answers every unique replayed
// name, paper §4.1). Built on ShardedDnsServer so throughput benches can
// dial worker shards and the wire-level response cache; the fidelity
// benches (Figs 6-8) keep the 1-shard, no-cache default.
#ifndef LDPLAYER_BENCH_REALTIME_UTIL_H
#define LDPLAYER_BENCH_REALTIME_UTIL_H

#include <cstdio>
#include <memory>

#include "replay/realtime.h"
#include "server/sharded_server.h"
#include "zone/masterfile.h"

namespace ldp::bench {

struct LoopbackOptions {
  size_t n_shards = 1;
  size_t response_cache_entries = 0;  // per shard; 0 = off
  int udp_recv_buffer_bytes = 0;      // per shard; 0 = kernel default
  // Stream-lane knobs for the mass-connection benches (figs 13-15):
  // serve DoT (requires OpenSSL — probe net::TlsAvailable()), idle-close
  // timeout (0 = never), and the per-shard connection cap (0 = unbounded).
  bool serve_tls = false;
  NanoDuration tcp_idle_timeout = Seconds(20);
  size_t max_tcp_connections = 0;
  // Optional live-metrics registry for the server side (must outlive it).
  stats::MetricsRegistry* metrics = nullptr;
};

class LoopbackServer {
 public:
  static std::unique_ptr<LoopbackServer> Start(
      const LoopbackOptions& options = LoopbackOptions()) {
    auto zone = zone::ParseMasterFile(
        "$ORIGIN example.com.\n"
        "@ 3600 IN SOA ns1 admin 1 2 3 4 300\n"
        "@ IN NS ns1\n"
        "ns1 IN A 192.0.2.53\n"
        "* IN A 192.0.2.200\n",
        zone::MasterFileOptions{});
    if (!zone.ok()) return nullptr;
    zone::ZoneSet zones;
    if (!zones.AddZone(std::make_shared<zone::Zone>(std::move(*zone))).ok()) {
      return nullptr;
    }
    zone::ViewTable views;
    views.SetDefaultView(std::move(zones));

    server::ShardedDnsServer::Config config;
    config.listen = Endpoint{IpAddress::Loopback(), 0};
    config.n_shards = options.n_shards;
    config.engine.response_cache_entries = options.response_cache_entries;
    config.udp_recv_buffer_bytes = options.udp_recv_buffer_bytes;
    config.serve_tls = options.serve_tls;
    config.tcp_idle_timeout = options.tcp_idle_timeout;
    config.max_tcp_connections = options.max_tcp_connections;
    config.metrics = options.metrics;
    auto server = server::ShardedDnsServer::Start(
        std::make_shared<const zone::ViewTable>(std::move(views)), config);
    if (!server.ok()) {
      std::fprintf(stderr, "LoopbackServer: %s\n",
                   server.error().ToString().c_str());
      return nullptr;
    }

    auto out = std::unique_ptr<LoopbackServer>(new LoopbackServer);
    out->server_ = std::move(*server);
    return out;
  }

  Endpoint endpoint() const { return server_->endpoint(); }
  Endpoint tls_endpoint() const { return server_->tls_endpoint(); }
  size_t n_shards() const { return server_->n_shards(); }
  server::EngineStats stats() const { return server_->TotalStats(); }
  server::TcpStats tcp_stats() const { return server_->TotalTcpStats(); }
  std::vector<server::TcpStats> shard_tcp_stats() const {
    return server_->ShardTcpStats();
  }

  // Points a trace at this server.
  void Target(std::vector<trace::QueryRecord>& records) const {
    for (auto& r : records) {
      r.dst = endpoint().addr;
      r.dst_port = endpoint().port;
    }
  }

 private:
  LoopbackServer() = default;
  std::unique_ptr<server::ShardedDnsServer> server_;
};

}  // namespace ldp::bench

#endif  // LDPLAYER_BENCH_REALTIME_UTIL_H
