#include "server/socket_server.h"

#include "common/log.h"

namespace ldp::server {

Result<std::unique_ptr<SocketDnsServer>> SocketDnsServer::Start(
    net::EventLoop& loop, std::shared_ptr<AuthServerEngine> engine,
    const Config& config) {
  if (config.serve_tls && config.tls == nullptr) {
    return Error(ErrorCode::kInvalidArgument,
                 "serve_tls requires a server TlsContext");
  }
  auto server = std::unique_ptr<SocketDnsServer>(
      new SocketDnsServer(loop, std::move(engine), config));
  SocketDnsServer* raw = server.get();
  stats::MetricsRegistry& metrics = raw->engine_->metrics();
  if (config.serve_tcp || config.serve_tls) {
    raw->tcp_ledger_.emplace(metrics);
    raw->framing_drops_ = metrics.AddCounter("framing.stream_drops");
  }
  if (config.serve_tls) raw->tls_ledger_.emplace(metrics);

  net::TcpListenOptions listen_options;
  listen_options.reuse_port = config.tcp_reuse_port;
  // TCP binds the same port the UDP socket got. With port 0 that is an
  // ephemeral port some TCP socket elsewhere on the host may already hold,
  // so a failed TCP bind draws another UDP port, a few times.
  for (int attempt = 0;; ++attempt) {
    LDP_ASSIGN_OR_RETURN(
        server->udp_,
        net::UdpSocket::Open(
            loop, config.listen,
            [raw](std::span<const net::UdpSocket::RecvItem> batch) {
              raw->OnUdpBatch(batch);
            },
            config.udp));
    if (!config.serve_tcp) break;
    Endpoint tcp_endpoint{config.listen.addr, server->udp_->local().port};
    auto listener = net::TcpListener::Listen(
        loop, tcp_endpoint,
        [raw](std::unique_ptr<net::TcpConnection> conn) {
          raw->OnAccept(std::move(conn), /*tls=*/false);
        },
        listen_options);
    if (listener.ok()) {
      server->listener_ = std::move(*listener);
      break;
    }
    if (config.listen.port != 0 || attempt == 7) return listener.error();
  }
  if (config.serve_tls) {
    Endpoint tls_endpoint{config.listen.addr, config.tls_port};
    LDP_ASSIGN_OR_RETURN(
        server->tls_listener_,
        net::TcpListener::Listen(
            loop, tls_endpoint,
            [raw](std::unique_ptr<net::TcpConnection> conn) {
              raw->OnAccept(std::move(conn), /*tls=*/true);
            },
            listen_options));
  }
  return server;
}

void SocketDnsServer::AddTcpStatsTo(TcpStats& stats) const {
  if (tcp_ledger_) tcp_ledger_->AddTo(stats);
  if (tls_ledger_) tls_ledger_->AddTo(stats);
}

void SocketDnsServer::OnUdpBatch(
    std::span<const net::UdpSocket::RecvItem> batch) {
  // Serve the whole readiness batch, then flush every reply with one
  // sendmmsg — the syscall cost amortizes across the batch both ways.
  if (config_.udp_batch_hist != nullptr && !batch.empty()) {
    config_.udp_batch_hist->Record(batch.size());
  }
  reply_bufs_.clear();
  reply_items_.clear();
  for (const auto& datagram : batch) {
    auto response = engine_->HandleWire(datagram.payload, datagram.from.addr,
                                        /*udp_limit=*/65535);
    if (!response.ok()) continue;  // undecodable: dropped
    reply_bufs_.push_back(std::move(*response));
    // Replies leave from the address the query targeted: local() on a
    // concretely-bound socket, the queried address on a wildcard one.
    reply_items_.push_back(net::UdpSocket::SendItem{
        reply_bufs_.back(), datagram.from, datagram.to});
  }
  size_t sent = udp_->SendBatch(reply_items_);
  if (sent < reply_items_.size()) {
    LDP_DEBUG << "UDP reply batch: kernel took " << sent << " of "
              << reply_items_.size() << " (send buffer full)";
  }
}

void SocketDnsServer::OnAccept(std::unique_ptr<net::TcpConnection> conn,
                               bool tls) {
  if (config_.max_tcp_connections > 0 &&
      conns_.size() >= config_.max_tcp_connections) {
    // At the cap: close this connection (the client sees an immediate EOF
    // and can back off) and stop accepting until evictions make room.
    tcp_ledger_->Add<&TcpStats::rejected>();
    PauseAccept();
    return;  // `conn` destroyed: active close
  }

  net::StreamConn* key = nullptr;
  if (tls) {
    auto tls_conn = net::TlsConnection::Accept(*config_.tls, std::move(conn));
    if (!tls_conn.ok()) {
      tls_ledger_->Add<&TcpStats::tls_aborts>();
      return;
    }
    key = tls_conn->get();
    ConnState& state = conns_[key];
    state.conn = std::move(*tls_conn);
    state.tls = true;
    state.last_activity = MonotonicNow();
    state.assembler.set_limits(config_.stream_limits);
    auto status = static_cast<net::TlsConnection*>(key)->Start(
        [this, key](Status ready) { OnTlsReady(key, std::move(ready)); },
        [this, key](std::span<const uint8_t> data) { OnTcpData(key, data); },
        [this, key](Status) { CloseConn(key); });
    if (!status.ok()) {
      tls_ledger_->Add<&TcpStats::tls_aborts>();
      conns_.erase(key);
      return;
    }
    tls_ledger_->gauge<&TcpStats::tls_open>().Add(1);
  } else {
    key = conn.get();
    ConnState& state = conns_[key];
    state.conn = std::move(conn);
    state.last_activity = MonotonicNow();
    state.assembler.set_limits(config_.stream_limits);
    auto status = net::TcpListener::AdoptHandlers(
        static_cast<net::TcpConnection&>(*key),
        [this, key](std::span<const uint8_t> data) { OnTcpData(key, data); },
        [this, key](Status) { CloseConn(key); });
    if (!status.ok()) {
      conns_.erase(key);
      return;
    }
  }
  tcp_ledger_->Add<&TcpStats::accepted>();
  tcp_ledger_->gauge<&TcpStats::open>().Set(
      static_cast<int64_t>(conns_.size()));
  // The idle timer also reaps connections whose TLS handshake never
  // completes (last_activity only advances on decrypted query bytes).
  if (config_.tcp_idle_timeout > 0) ArmIdleTimer(key);
}

void SocketDnsServer::OnTlsReady(net::StreamConn* key, Status status) {
  auto it = conns_.find(key);
  if (it == conns_.end()) return;
  if (!status.ok()) {
    tls_ledger_->Add<&TcpStats::tls_aborts>();
    CloseConn(key);
    return;
  }
  auto* tls = static_cast<net::TlsConnection*>(key);
  tls_ledger_->Add<&TcpStats::tls_handshakes>();
  if (tls->session_reused()) {
    tls_ledger_->Add<&TcpStats::tls_resumptions>();
  }
  if (config_.tls_handshake_hist != nullptr) {
    config_.tls_handshake_hist->Record(
        static_cast<uint64_t>(tls->handshake_duration()));
  }
  it->second.last_activity = MonotonicNow();
}

void SocketDnsServer::OnTcpData(net::StreamConn* key,
                                std::span<const uint8_t> data) {
  auto it = conns_.find(key);
  if (it == conns_.end()) return;
  ConnState& state = it->second;
  state.last_activity = MonotonicNow();

  const uint64_t dropped = state.assembler.dropped_messages();
  const bool framed = state.assembler.Feed(data).ok();
  framing_drops_->Add(state.assembler.dropped_messages() - dropped);
  if (!framed) {
    CloseConn(key);
    return;
  }
  while (auto wire = state.assembler.NextMessage()) {
    auto responses = engine_->HandleStream(*wire, key->remote().addr);
    if (!responses.ok()) continue;
    for (const auto& response : *responses) {
      auto framed = dns::FrameMessage(response);
      if (!framed.ok()) continue;
      auto status = key->Send(*framed);
      if (!status.ok()) {
        CloseConn(key);
        return;
      }
    }
  }
}

void SocketDnsServer::ArmIdleTimer(net::StreamConn* key) {
  auto it = conns_.find(key);
  if (it == conns_.end()) return;
  it->second.idle_timer = loop_.ScheduleAfter(
      config_.tcp_idle_timeout, [this, key]() {
        auto conn_it = conns_.find(key);
        if (conn_it == conns_.end()) return;
        NanoTime deadline =
            conn_it->second.last_activity + config_.tcp_idle_timeout;
        if (MonotonicNow() >= deadline) {
          tcp_ledger_->Add<&TcpStats::idle_closed>();
          CloseConn(key);
        } else {
          ArmIdleTimer(key);  // activity since arming: re-check later
        }
      });
}

void SocketDnsServer::CloseConn(net::StreamConn* key) {
  auto it = conns_.find(key);
  if (it == conns_.end()) return;
  RemoveConn(it);  // destroys the connection (active close)
}

void SocketDnsServer::RemoveConn(
    std::unordered_map<net::StreamConn*, ConnState>::iterator it) {
  it->second.idle_timer.Cancel();
  if (it->second.tls) {
    tls_ledger_->gauge<&TcpStats::tls_open>().Add(-1);
  }
  // Detach first and let `node` destroy the connection after the counters
  // are updated: destroying it closes the socket, and a client that sees
  // that EOF must not be able to read a stale `open` gauge.
  auto node = conns_.extract(it);
  tcp_ledger_->gauge<&TcpStats::open>().Set(
      static_cast<int64_t>(conns_.size()));
  MaybeResumeAccept();
}

void SocketDnsServer::PauseAccept() {
  if (listener_ != nullptr) listener_->Pause();
  if (tls_listener_ != nullptr) tls_listener_->Pause();
}

void SocketDnsServer::MaybeResumeAccept() {
  if (config_.max_tcp_connections == 0) return;
  if (conns_.size() >= config_.max_tcp_connections) return;
  // Resume is a no-op on a listener that never paused.
  if (listener_ != nullptr) listener_->Resume();
  if (tls_listener_ != nullptr) tls_listener_->Resume();
}

}  // namespace ldp::server
