// Authoritative server on real sockets (UDP + TCP + DoT over loopback): the
// server side of the replay-fidelity experiments (§4), sharing the engine
// with the simulated binding.
#ifndef LDPLAYER_SERVER_SOCKET_SERVER_H
#define LDPLAYER_SERVER_SOCKET_SERVER_H

#include <array>
#include <memory>
#include <optional>
#include <unordered_map>

#include "dns/framing.h"
#include "net/sockets.h"
#include "net/tls.h"
#include "server/engine.h"
#include "stats/metrics.h"

namespace ldp::server {

// Connection-lane counters, read from a server's registry cells (see
// SocketDnsServer::AddTcpStatsTo).
struct TcpStats {
  uint64_t accepted = 0;   // admitted connections (TCP + TLS)
  uint64_t rejected = 0;   // closed at max_tcp_connections
  uint64_t idle_closed = 0;
  uint64_t open = 0;       // current connections (gauge)
  uint64_t tls_open = 0;   // current TLS connections (gauge)
  uint64_t tls_handshakes = 0;   // completed handshakes
  uint64_t tls_resumptions = 0;  // of which session-resumed
  uint64_t tls_aborts = 0;       // failed/aborted handshakes
};

// The stream lanes' ledgers: the TCP lane's cells exist when the server
// serves TCP or TLS, the TLS lane's only with TLS.
inline constexpr auto kTcpLedger = std::to_array<stats::LedgerRow<TcpStats>>({
    {"server.tcp_accepted", &TcpStats::accepted},
    {"server.tcp_accept_rejected", &TcpStats::rejected},
    {"server.tcp_idle_closed", &TcpStats::idle_closed},
    {"server.tcp_open", &TcpStats::open, /*level=*/true},
});
inline constexpr auto kTlsLedger = std::to_array<stats::LedgerRow<TcpStats>>({
    {"tls.handshakes", &TcpStats::tls_handshakes},
    {"tls.resumptions", &TcpStats::tls_resumptions},
    {"tls.aborts", &TcpStats::tls_aborts},
    {"tls.open_connections", &TcpStats::tls_open, /*level=*/true},
});

class SocketDnsServer {
 public:
  struct Config {
    Endpoint listen;  // port 0 picks an ephemeral port (tests)
    bool serve_tcp = true;
    // DNS-over-TLS listener (requires `tls`); tls_port 0 picks an ephemeral
    // port, resolved via tls_endpoint().
    bool serve_tls = false;
    uint16_t tls_port = 0;
    // Shared server TLS context (one per process: SSL_CTX is internally
    // locked, and sharing it means one certificate and one ticket key for
    // every shard). Must outlive the server.
    net::TlsContext* tls = nullptr;
    NanoDuration tcp_idle_timeout = Seconds(20);
    // Upper bound on concurrent stream connections (TCP + TLS together);
    // 0 = unbounded. At the cap, newly accepted connections are closed
    // immediately (counted in TcpStats::rejected) and both listeners
    // pause, leaving further SYNs in the kernel backlog until idle eviction
    // or client closes make room — the flow-table bounding discipline
    // applied to the connection map.
    size_t max_tcp_connections = 0;
    // SO_REUSEPORT on the stream listeners, so sibling shards can bind the
    // same port and the kernel spreads accepts across them.
    bool tcp_reuse_port = false;
    // The UDP socket's options: reuse_port lets sibling shards share the
    // port, and a registry there counts datapath.* frames.
    net::UdpOptions udp;
    // Optional: records datagrams per readiness batch. Must outlive the
    // server (owned by a MetricsRegistry).
    stats::LogHistogram* udp_batch_hist = nullptr;
    // Optional: records TLS handshake wall time in ns. Must outlive the
    // server (owned by a MetricsRegistry).
    stats::LogHistogram* tls_handshake_hist = nullptr;
    // Backpressure bounds applied to every TCP connection's reassembly
    // backlog; drops are counted as framing.stream_drops.
    dns::StreamAssembler::Limits stream_limits;
  };

  // The stream lanes count into the engine's registry.
  static Result<std::unique_ptr<SocketDnsServer>> Start(
      net::EventLoop& loop, std::shared_ptr<AuthServerEngine> engine,
      const Config& config);

  // The actually-bound endpoint (resolves ephemeral ports).
  Endpoint endpoint() const { return udp_->local(); }
  // Bound DoT endpoint; only meaningful with serve_tls.
  Endpoint tls_endpoint() const {
    return tls_listener_ != nullptr ? tls_listener_->local() : Endpoint{};
  }
  size_t open_tcp_connections() const { return conns_.size(); }
  // Adds this server's stream-lane counters into `stats`.
  void AddTcpStatsTo(TcpStats& stats) const;

 private:
  SocketDnsServer(net::EventLoop& loop,
                  std::shared_ptr<AuthServerEngine> engine, Config config)
      : loop_(loop), engine_(std::move(engine)), config_(config) {}

  struct ConnState {
    std::unique_ptr<net::StreamConn> conn;
    bool tls = false;
    dns::StreamAssembler assembler;
    NanoTime last_activity = 0;
    net::TimerHandle idle_timer;
  };

  void OnUdpBatch(std::span<const net::UdpSocket::RecvItem> batch);
  void OnAccept(std::unique_ptr<net::TcpConnection> conn, bool tls);
  void OnTlsReady(net::StreamConn* key, Status status);
  void OnTcpData(net::StreamConn* key, std::span<const uint8_t> data);
  void ArmIdleTimer(net::StreamConn* key);
  void CloseConn(net::StreamConn* key);
  // Erase + connection-gauge upkeep + listener resume below the cap.
  void RemoveConn(std::unordered_map<net::StreamConn*, ConnState>::iterator it);
  void PauseAccept();
  void MaybeResumeAccept();

  net::EventLoop& loop_;
  std::shared_ptr<AuthServerEngine> engine_;
  Config config_;
  // Cells in the engine's registry; unset for a lane the server does not
  // serve. Bumped only from the loop thread.
  std::optional<stats::Ledger<kTcpLedger>> tcp_ledger_;
  std::optional<stats::Ledger<kTlsLedger>> tls_ledger_;
  // Complete TCP frames dropped because a connection's ready backlog was
  // full.
  stats::Counter* framing_drops_ = nullptr;
  std::unique_ptr<net::UdpSocket> udp_;
  std::unique_ptr<net::TcpListener> listener_;
  std::unique_ptr<net::TcpListener> tls_listener_;
  std::unordered_map<net::StreamConn*, ConnState> conns_;
  // Per-batch reply staging, reused across readiness events: the encoded
  // responses (kept alive through the SendBatch call) and their addresses.
  std::vector<Bytes> reply_bufs_;
  std::vector<net::UdpSocket::SendItem> reply_items_;
};

}  // namespace ldp::server

#endif  // LDPLAYER_SERVER_SOCKET_SERVER_H
