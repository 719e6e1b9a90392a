#include "server/sharded_server.h"

#include <algorithm>

namespace ldp::server {

Result<std::unique_ptr<ShardedDnsServer>> ShardedDnsServer::Start(
    std::shared_ptr<const zone::ViewTable> views, const Config& config) {
  size_t n_shards = config.n_shards;
  if (n_shards == 0) {
    n_shards = std::max(1u, std::thread::hardware_concurrency());
  }

  auto sharded = std::unique_ptr<ShardedDnsServer>(new ShardedDnsServer);
  if (config.serve_tls) {
    // One context for every shard: one certificate, one ticket key, so a
    // session issued by any shard resumes on whichever shard the kernel
    // hashes the reconnect to.
    LDP_ASSIGN_OR_RETURN(sharded->tls_ctx_, net::TlsContext::NewServer());
  }
  Endpoint listen = config.listen;
  uint16_t tls_port = config.tls_port;
  for (size_t i = 0; i < n_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    LDP_ASSIGN_OR_RETURN(shard->loop, net::EventLoop::Create());
    shard->engine = std::make_shared<AuthServerEngine>(views, config.engine,
                                                       config.metrics);

    SocketDnsServer::Config shard_config;
    shard_config.listen = listen;
    shard_config.serve_tcp = config.serve_tcp;
    shard_config.serve_tls = config.serve_tls;
    shard_config.tls_port = tls_port;
    shard_config.tls = sharded->tls_ctx_.get();
    shard_config.max_tcp_connections = config.max_tcp_connections;
    // With several shards the stream listeners must share their ports the
    // way the UDP sockets do.
    shard_config.tcp_reuse_port = n_shards > 1;
    shard_config.tcp_idle_timeout = config.tcp_idle_timeout;
    shard_config.udp.reuse_port = true;
    shard_config.udp.recv_buffer_bytes = config.udp_recv_buffer_bytes;
    shard_config.udp.metrics = config.metrics;
    if (config.metrics != nullptr) {
      shard->loop->SetMetrics(config.metrics->AddHistogram("server.loop_lag_ns"),
                              config.metrics->AddHistogram("server.epoll_batch"));
      shard_config.udp_batch_hist =
          config.metrics->AddHistogram("server.udp_batch");
      if (config.serve_tls) {
        shard_config.tls_handshake_hist =
            config.metrics->AddHistogram("tls.handshake_ns");
      }
    }
    LDP_ASSIGN_OR_RETURN(
        shard->server,
        SocketDnsServer::Start(*shard->loop, shard->engine, shard_config));
    if (config.metrics != nullptr && config.serve_tls && i == 0) {
      // Process-wide OpenSSL live bytes (see TlsEnableMemoryAccounting);
      // registered once, not per shard — it is already a global sum.
      config.metrics->AddGaugeFn("tls.mem_bytes", [] {
        return static_cast<int64_t>(net::TlsAllocatedBytes());
      });
    }
    if (i == 0) {
      // Shard 0 resolves port 0; the rest bind the concrete ports so
      // SO_REUSEPORT groups them onto the same addresses.
      listen = Endpoint{config.listen.addr, shard->server->endpoint().port};
      sharded->endpoint_ = shard->server->endpoint();
      if (config.serve_tls) {
        sharded->tls_endpoint_ = shard->server->tls_endpoint();
        tls_port = sharded->tls_endpoint_.port;
      }
    }
    sharded->shards_.push_back(std::move(shard));
  }

  // All shards bound: start the workers. Each loop is only touched by its
  // own thread from here on (Stop uses the thread-safe wakeup).
  for (auto& shard : sharded->shards_) {
    shard->thread = std::thread([loop = shard->loop.get()]() { loop->Run(); });
  }
  return sharded;
}

ShardedDnsServer::~ShardedDnsServer() { Stop(); }

void ShardedDnsServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& shard : shards_) shard->loop->RequestStop();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

EngineStats ShardedDnsServer::TotalStats() const {
  EngineStats total;
  for (const auto& shard : shards_) shard->engine->ledger().AddTo(total);
  return total;
}

std::vector<EngineStats> ShardedDnsServer::ShardStats() const {
  std::vector<EngineStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->engine->stats());
  return stats;
}

TcpStats ShardedDnsServer::TotalTcpStats() const {
  TcpStats total;
  for (const auto& shard : shards_) shard->server->AddTcpStatsTo(total);
  return total;
}

std::vector<TcpStats> ShardedDnsServer::ShardTcpStats() const {
  std::vector<TcpStats> stats(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->server->AddTcpStatsTo(stats[i]);
  }
  return stats;
}

}  // namespace ldp::server
