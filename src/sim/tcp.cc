#include "sim/tcp.h"

#include <cassert>

#include "common/log.h"

namespace ldp::sim {
namespace {

constexpr uint8_t kTlsHandshake = 0x16;
constexpr uint8_t kTlsAppData = 0x17;
constexpr size_t kTlsRecordOverhead = 25;  // MAC + padding + IV, post-header

// Approximate TLS 1.2 full-handshake flight sizes (bytes).
constexpr size_t kFlightSizes[4] = {220, 3000, 330, 100};

// Writes a TLS record: type, u24 length, body of `size` zero bytes (the
// content of handshake flights is irrelevant; only size and count matter).
void AppendRecord(Bytes& out, uint8_t type, std::span<const uint8_t> body,
                  size_t pad_to = 0) {
  size_t body_size = pad_to > 0 ? pad_to : body.size() + kTlsRecordOverhead;
  out.push_back(type);
  out.push_back(static_cast<uint8_t>(body_size >> 16));
  out.push_back(static_cast<uint8_t>(body_size >> 8));
  out.push_back(static_cast<uint8_t>(body_size));
  out.insert(out.end(), body.begin(), body.end());
  size_t padding = body_size - body.size();
  out.insert(out.end(), padding, 0);
}

}  // namespace

// --- SimTcpConnection ---

void SimTcpConnection::Send(Bytes data) {
  assert(stack_ != nullptr);
  if (state_ != State::kEstablished) {
    LDP_WARN << "Send on non-established connection " << local_.ToString();
    return;
  }
  if (tls_) {
    NodeMeters* m = stack_->meters();
    if (m != nullptr) m->AddCpu(m->model().tls_record_cpu);
    Bytes record;
    record.reserve(data.size() + 4 + kTlsRecordOverhead);
    AppendRecord(record, kTlsAppData, data);
    stack_->FlushOrQueue(*this, std::move(record));
  } else {
    stack_->FlushOrQueue(*this, std::move(data));
  }
  stack_->TouchActivity(*this);
}

void SimTcpConnection::Close() {
  assert(stack_ != nullptr);
  if (state_ == State::kClosed) return;
  stack_->CloseActive(*this);
}

// --- SimTcpStack ---

SimTcpStack::SimTcpStack(SimNetwork& net, IpAddress host)
    : net_(net), host_(host) {
  net_.AttachTcpStack(host_, [this](const SimPacket& packet) {
    OnSegment(packet);
  });
}

SimTcpStack::~SimTcpStack() {
  // In-flight segments to this host must not hit a dangling handler.
  net_.DetachTcpStack(host_);
}

Status SimTcpStack::Listen(uint16_t port, AcceptHandler handler, bool tls,
                           NanoDuration idle_timeout) {
  auto [it, inserted] = listeners_.emplace(
      port, Listener{std::move(handler), tls, idle_timeout});
  if (!inserted) {
    return Error(ErrorCode::kAlreadyExists,
                 "TCP listener exists on port " + std::to_string(port));
  }
  return Status::Ok();
}

Result<uint16_t> SimTcpStack::AllocatePort() {
  for (int attempts = 0; attempts < 64512; ++attempts) {
    uint16_t candidate = next_port_;
    next_port_ = next_port_ == 65535 ? 1024 : next_port_ + 1;
    if (listeners_.count(candidate) || time_wait_ports_.count(candidate) ||
        used_client_ports_.count(candidate)) {
      continue;
    }
    used_client_ports_.insert(candidate);
    return candidate;
  }
  return Error(ErrorCode::kResourceExhausted,
               "no free ephemeral ports on " + host_.ToString());
}

Result<SimTcpConnection*> SimTcpStack::Connect(Endpoint remote,
                                               ConnCallbacks callbacks,
                                               bool tls, bool nagle) {
  LDP_ASSIGN_OR_RETURN(uint16_t port, AllocatePort());
  auto conn = std::make_unique<SimTcpConnection>();
  SimTcpConnection* raw = conn.get();
  raw->stack_ = this;
  raw->local_ = Endpoint{host_, port};
  raw->remote_ = remote;
  raw->state_ = SimTcpConnection::State::kSynSent;
  raw->tls_ = tls;
  raw->client_side_ = true;
  raw->nagle_ = nagle;
  raw->callbacks_ = std::move(callbacks);
  raw->last_activity_ = net_.simulator().Now();
  conns_.emplace(ConnKey{port, remote}, std::move(conn));

  ChargeCpu(meters() != nullptr ? meters()->model().tcp_handshake_cpu : 0);
  SendControl(*raw, SegmentKind::kTcpSyn);
  return raw;
}

void SimTcpStack::OnSegment(const SimPacket& packet) {
  ConnKey key{packet.dst_port, Endpoint{packet.src, packet.src_port}};
  auto it = conns_.find(key);

  if (packet.kind == SegmentKind::kTcpSyn) {
    auto listener_it = listeners_.find(packet.dst_port);
    if (listener_it == listeners_.end()) {
      LDP_DEBUG << "SYN to closed port " << packet.dst_port;
      return;
    }
    if (it != conns_.end()) return;  // duplicate SYN
    const Listener& listener = listener_it->second;
    auto conn = std::make_unique<SimTcpConnection>();
    SimTcpConnection* raw = conn.get();
    raw->stack_ = this;
    raw->local_ = Endpoint{host_, packet.dst_port};
    raw->remote_ = Endpoint{packet.src, packet.src_port};
    raw->state_ = SimTcpConnection::State::kSynRcvd;
    raw->tls_ = listener.tls;
    raw->client_side_ = false;
    raw->idle_timeout_ = listener.idle_timeout;
    raw->last_activity_ = net_.simulator().Now();
    raw->callbacks_ = listener.handler(*raw);
    conns_.emplace(key, std::move(conn));
    if (NodeMeters* m = meters()) m->AddCpu(m->model().tcp_handshake_cpu);
    SendControl(*raw, SegmentKind::kTcpSynAck);
    return;
  }

  if (it == conns_.end()) {
    LDP_DEBUG << "segment for unknown connection on " << host_.ToString();
    return;
  }
  SimTcpConnection& conn = *it->second;

  switch (packet.kind) {
    case SegmentKind::kTcpSynAck:
      if (conn.state_ == SimTcpConnection::State::kSynSent) {
        SendControl(conn, SegmentKind::kTcpAck);
        MarkEstablished(conn);
        if (conn.tls_) {
          // Client opens the TLS handshake.
          Bytes record;
          AppendRecord(record, kTlsHandshake, {}, kFlightSizes[0]);
          FlushOrQueue(conn, std::move(record));
        } else {
          MarkAppEstablished(conn);
        }
      }
      break;
    case SegmentKind::kTcpAck:
      if (conn.state_ == SimTcpConnection::State::kSynRcvd) {
        MarkEstablished(conn);
        if (!conn.tls_) MarkAppEstablished(conn);
      } else {
        OnAck(conn);
      }
      break;
    case SegmentKind::kTcpData:
      // Piggybacked establishment: data reaching a SYN_RCVD server implies
      // the client's ACK was coalesced with it.
      if (conn.state_ == SimTcpConnection::State::kSynRcvd) {
        MarkEstablished(conn);
        if (!conn.tls_) MarkAppEstablished(conn);
      }
      OnDataSegment(conn, packet);
      break;
    case SegmentKind::kTcpFin:
      ClosePassive(conn);
      break;
    case SegmentKind::kTcpSyn:
      break;  // unreachable: a SYN is handled before the switch
    case SegmentKind::kUdp:
      break;  // unreachable: UDP routes to datagram listeners
  }
}

void SimTcpStack::SendControl(const SimTcpConnection& conn, SegmentKind kind) {
  SimPacket packet;
  packet.src = conn.local_.addr;
  packet.src_port = conn.local_.port;
  packet.dst = conn.remote_.addr;
  packet.dst_port = conn.remote_.port;
  packet.kind = kind;
  net_.SendSegment(std::move(packet));
}

void SimTcpStack::FlushOrQueue(SimTcpConnection& conn, Bytes data) {
  // Nagle: while a segment is unacknowledged, buffer small writes and
  // flush them as one segment when the ACK arrives.
  if (conn.nagle_ && conn.segment_in_flight_) {
    conn.pending_.insert(conn.pending_.end(), data.begin(), data.end());
    return;
  }
  SendData(conn, std::move(data));
}

void SimTcpStack::SendData(SimTcpConnection& conn, Bytes data) {
  if (NodeMeters* m = meters()) m->AddCpu(m->model().tcp_segment_cpu);
  conn.segment_in_flight_ = true;
  SimPacket packet;
  packet.src = conn.local_.addr;
  packet.src_port = conn.local_.port;
  packet.dst = conn.remote_.addr;
  packet.dst_port = conn.remote_.port;
  packet.kind = SegmentKind::kTcpData;
  packet.payload = std::move(data);
  net_.SendSegment(std::move(packet));
}

void SimTcpStack::OnAck(SimTcpConnection& conn) {
  conn.segment_in_flight_ = false;
  if (!conn.pending_.empty()) {
    Bytes coalesced = std::move(conn.pending_);
    conn.pending_.clear();
    SendData(conn, std::move(coalesced));
  }
}

void SimTcpStack::OnDataSegment(SimTcpConnection& conn,
                                const SimPacket& packet) {
  if (NodeMeters* m = meters()) m->AddCpu(m->model().tcp_segment_cpu);
  SendControl(conn, SegmentKind::kTcpAck);
  TouchActivity(conn);

  if (!conn.tls_) {
    DeliverAppData(conn, packet.payload);
    return;
  }

  // TLS: reassemble records across segment boundaries.
  conn.record_buffer_.insert(conn.record_buffer_.end(),
                             packet.payload.begin(), packet.payload.end());
  while (conn.record_buffer_.size() >= 4) {
    uint8_t type = conn.record_buffer_[0];
    size_t len = (static_cast<size_t>(conn.record_buffer_[1]) << 16) |
                 (static_cast<size_t>(conn.record_buffer_[2]) << 8) |
                 conn.record_buffer_[3];
    if (conn.record_buffer_.size() < 4 + len) break;
    if (type == kTlsHandshake) {
      TlsHandshakeAdvance(conn, type);
    } else if (type == kTlsAppData) {
      if (NodeMeters* m = meters()) m->AddCpu(m->model().tls_record_cpu);
      size_t payload_len = len >= kTlsRecordOverhead
                               ? len - kTlsRecordOverhead
                               : 0;
      DeliverAppData(conn, std::span<const uint8_t>(
                               conn.record_buffer_.data() + 4, payload_len));
    }
    conn.record_buffer_.erase(conn.record_buffer_.begin(),
                              conn.record_buffer_.begin() + 4 +
                                  static_cast<ptrdiff_t>(len));
  }
}

void SimTcpStack::TlsHandshakeAdvance(SimTcpConnection& conn, uint8_t) {
  ++conn.tls_handshake_step_;
  if (conn.client_side_) {
    // Client receives flight 2, sends flight 3; receives flight 4, done.
    if (conn.tls_handshake_step_ == 1) {
      Bytes record;
      AppendRecord(record, kTlsHandshake, {}, kFlightSizes[2]);
      FlushOrQueue(conn, std::move(record));
    } else if (conn.tls_handshake_step_ == 2) {
      if (NodeMeters* m = meters()) m->AddCpu(m->model().tls_handshake_cpu);
      MarkAppEstablished(conn);
    }
  } else {
    // Server receives flight 1, sends flight 2; receives flight 3, sends
    // flight 4 and is done.
    if (conn.tls_handshake_step_ == 1) {
      Bytes record;
      AppendRecord(record, kTlsHandshake, {}, kFlightSizes[1]);
      FlushOrQueue(conn, std::move(record));
    } else if (conn.tls_handshake_step_ == 2) {
      if (NodeMeters* m = meters()) m->AddCpu(m->model().tls_handshake_cpu);
      Bytes record;
      AppendRecord(record, kTlsHandshake, {}, kFlightSizes[3]);
      FlushOrQueue(conn, std::move(record));
      MarkAppEstablished(conn);
    }
  }
}

void SimTcpStack::DeliverAppData(SimTcpConnection& conn,
                                 std::span<const uint8_t> data) {
  if (conn.callbacks_.on_data) conn.callbacks_.on_data(conn, data);
}

void SimTcpStack::MarkEstablished(SimTcpConnection& conn) {
  if (conn.state_ == SimTcpConnection::State::kEstablished) return;
  conn.state_ = SimTcpConnection::State::kEstablished;
  if (NodeMeters* m = meters()) m->OnConnEstablished();
  TouchActivity(conn);
}

void SimTcpStack::MarkAppEstablished(SimTcpConnection& conn) {
  if (conn.app_established_) return;
  conn.app_established_ = true;
  if (conn.tls_) {
    if (NodeMeters* m = meters()) m->OnTlsEstablished();
  }
  if (conn.callbacks_.on_established) conn.callbacks_.on_established(conn);
}

void SimTcpStack::TouchActivity(SimTcpConnection& conn) {
  conn.last_activity_ = net_.simulator().Now();
  if (conn.idle_timeout_ > 0) ArmIdleTimer(conn);
}

void SimTcpStack::ArmIdleTimer(SimTcpConnection& conn) {
  conn.idle_timer_.Cancel();
  ConnKey key{conn.local_.port, conn.remote_};
  std::weak_ptr<char> alive = alive_;
  conn.idle_timer_ = net_.simulator().Schedule(
      conn.idle_timeout_, [this, alive, key]() {
        if (alive.expired()) return;
        auto it = conns_.find(key);
        if (it == conns_.end()) return;
        SimTcpConnection& c = *it->second;
        NanoTime idle_since = c.last_activity_ + c.idle_timeout_;
        if (net_.simulator().Now() >= idle_since) {
          // Idle: server-side close. Inform the application.
          if (c.callbacks_.on_close) c.callbacks_.on_close(c);
          CloseActive(c);
        }
      });
}

void SimTcpStack::CloseActive(SimTcpConnection& conn) {
  if (conn.state_ == SimTcpConnection::State::kClosed) return;
  bool was_established =
      conn.state_ == SimTcpConnection::State::kEstablished;
  conn.state_ = SimTcpConnection::State::kClosed;
  conn.idle_timer_.Cancel();
  SendControl(conn, SegmentKind::kTcpFin);

  if (NodeMeters* m = meters()) {
    if (was_established) {
      m->OnConnClosed(conn.tls_ && conn.app_established_,
                      /*enters_time_wait=*/true);
    }
  }
  // Hold the port through TIME_WAIT (2*MSL), then release.
  uint16_t port = conn.local_.port;
  bool track_port = conn.client_side_;  // server port 53 is shared
  if (track_port) time_wait_ports_.insert(port);
  if (was_established) {
    std::weak_ptr<char> alive = alive_;
    net_.simulator().Schedule(time_wait_duration_,
                              [this, alive, port, track_port]() {
                                if (alive.expired()) return;
                                if (NodeMeters* m = meters()) {
                                  m->OnTimeWaitExpired();
                                }
                                if (track_port) time_wait_ports_.erase(port);
                              });
  } else if (track_port) {
    time_wait_ports_.erase(port);
  }
  EraseDeferred(conn);
}

void SimTcpStack::ClosePassive(SimTcpConnection& conn) {
  if (conn.state_ == SimTcpConnection::State::kClosed) return;
  bool was_established =
      conn.state_ == SimTcpConnection::State::kEstablished;
  conn.state_ = SimTcpConnection::State::kClosed;
  conn.idle_timer_.Cancel();
  if (NodeMeters* m = meters()) {
    if (was_established) {
      m->OnConnClosed(conn.tls_ && conn.app_established_,
                      /*enters_time_wait=*/false);
    }
  }
  if (conn.callbacks_.on_close) conn.callbacks_.on_close(conn);
  EraseDeferred(conn);
}

void SimTcpStack::EraseDeferred(const SimTcpConnection& conn) {
  // Deletion is deferred one event so callbacks running right now can
  // still touch the connection object safely. Client ports stay reserved
  // through TIME_WAIT (CloseActive keeps them in time_wait_ports_).
  ConnKey key{conn.local_.port, conn.remote_};
  bool client = conn.client_side_;
  uint16_t port = conn.local_.port;
  std::weak_ptr<char> alive = alive_;
  net_.simulator().Schedule(0, [this, alive, key, client, port]() {
    if (alive.expired()) return;
    auto it = conns_.find(key);
    if (it == conns_.end()) return;
    // Move the connection out *before* mutating the maps: destroying its
    // callbacks may release whatever owns this stack (an application
    // holding the stack alive through the connection's closures), so the
    // destruction must be the very last thing this frame does.
    std::unique_ptr<SimTcpConnection> doomed = std::move(it->second);
    conns_.erase(it);
    if (client) used_client_ports_.erase(port);
    // `doomed` (and potentially *this) die here; touch nothing after.
  });
}

void SimTcpStack::ChargeCpu(NanoDuration cost) {
  if (cost <= 0) return;
  if (NodeMeters* m = meters()) m->AddCpu(cost);
}

}  // namespace ldp::sim
