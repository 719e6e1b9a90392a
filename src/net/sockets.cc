#include "net/sockets.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

#include "common/log.h"

namespace ldp::net {
namespace {

sockaddr_in ToSockaddr(Endpoint endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  addr.sin_addr.s_addr = htonl(endpoint.addr.value());
  return addr;
}

Endpoint FromSockaddr(const sockaddr_in& addr) {
  return Endpoint{IpAddress(ntohl(addr.sin_addr.s_addr)),
                  ntohs(addr.sin_port)};
}

Result<Endpoint> LocalEndpoint(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Error(ErrorCode::kIoError,
                 std::string("getsockname: ") + std::strerror(errno));
  }
  return FromSockaddr(addr);
}

Error Errno(const char* what) {
  return Error(ErrorCode::kIoError, std::string(what) + ": " +
                                        std::strerror(errno));
}

}  // namespace

// --- UdpSocket ---

// The loop's receive arena (EventLoop::udp_recv_arena). The headers are
// aimed at the slots once, so a read sets only the fields the kernel writes
// back and the control buffer its socket wants.
struct UdpRecvArena {
  // Per datagram: SCM_TIMESTAMPNS when stamping, IP_PKTINFO when wildcard.
  static constexpr size_t kControlBytes =
      CMSG_SPACE(sizeof(timespec)) + CMSG_SPACE(sizeof(in_pktinfo));
  static constexpr size_t kBatchSize = UdpSocket::kBatchSize;
  static constexpr size_t kSlotSize = UdpSocket::kRecvSlotSize;

  UdpRecvArena() {
    for (size_t i = 0; i < kBatchSize; ++i) {
      iovs[i].iov_base = slots.get() + i * kSlotSize;
      iovs[i].iov_len = kSlotSize;
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &addrs[i];
    }
  }
  // The headers point into this object.
  UdpRecvArena(const UdpRecvArena&) = delete;
  UdpRecvArena& operator=(const UdpRecvArena&) = delete;

  // for_overwrite: recvmmsg fills a slot before anything reads it, so
  // zeroing the 2 MiB would buy nothing.
  std::unique_ptr<uint8_t[]> slots =
      std::make_unique_for_overwrite<uint8_t[]>(kBatchSize * kSlotSize);
  mmsghdr msgs[kBatchSize] = {};
  iovec iovs[kBatchSize] = {};
  sockaddr_in addrs[kBatchSize] = {};
  alignas(cmsghdr) uint8_t control[kBatchSize][kControlBytes] = {};
  UdpRecvItem items[kBatchSize];  // Drain's batch
  // Set while a batch handler holds payloads in the slots: a read then
  // would overwrite them (the debug guard in RecvBatch).
  bool lent = false;
};

Result<std::unique_ptr<UdpSocket>> UdpSocket::BindInternal(
    EventLoop& loop, Endpoint local, const Options& options,
    DatagramHandler on_datagram, BatchHandler on_batch) {
  Fd fd(::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket(UDP)");

  if (options.reuse_port) {
    int one = 1;
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) != 0) {
      return Errno("setsockopt(SO_REUSEPORT)");
    }
  }
  if (options.recv_buffer_bytes > 0) {
    // Best-effort: the kernel clamps to rmem_max without error.
    int bytes = options.recv_buffer_bytes;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  }
  if (options.rx_timestamps) {
    int one = 1;
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_TIMESTAMPNS, &one,
                     sizeof(one)) != 0) {
      return Errno("setsockopt(SO_TIMESTAMPNS)");
    }
  }

  const bool pktinfo = local.addr.IsUnspecified();
  if (pktinfo) {
    int one = 1;
    if (::setsockopt(fd.get(), IPPROTO_IP, IP_PKTINFO, &one, sizeof(one)) !=
        0) {
      return Errno("setsockopt(IP_PKTINFO)");
    }
  }

  sockaddr_in addr = ToSockaddr(local);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno(("bind " + local.ToString()).c_str());
  }
  LDP_ASSIGN_OR_RETURN(Endpoint bound, LocalEndpoint(fd.get()));

  auto socket =
      std::unique_ptr<UdpSocket>(new UdpSocket(loop, std::move(fd), bound));
  socket->on_datagram_ = std::move(on_datagram);
  socket->on_batch_ = std::move(on_batch);
  socket->rx_timestamps_ = options.rx_timestamps;
  socket->pktinfo_ = pktinfo;
  if (options.metrics != nullptr) {
    socket->rx_frames_ = options.metrics->AddCounter("datapath.rx_frames");
    socket->tx_frames_ = options.metrics->AddCounter("datapath.tx_frames");
  }
  EventLoop::UdpRecvArenaPtr& arena = loop.udp_recv_arena();
  if (arena == nullptr) {
    arena = EventLoop::UdpRecvArenaPtr(
        new UdpRecvArena(), [](UdpRecvArena* dead) { delete dead; });
  }
  socket->arena_ = arena.get();
  UdpSocket* raw = socket.get();
  LDP_RETURN_IF_ERROR(loop.Add(raw->fd_.get(), /*want_read=*/true,
                               /*want_write=*/false,
                               [raw](IoEvents) { raw->Drain(); }));
  return socket;
}

Result<std::unique_ptr<UdpSocket>> UdpSocket::Bind(EventLoop& loop,
                                                   Endpoint local,
                                                   DatagramHandler on_datagram,
                                                   const Options& options) {
  return BindInternal(loop, local, options, std::move(on_datagram), nullptr);
}

Result<std::unique_ptr<UdpSocket>> UdpSocket::Open(
    EventLoop& loop, Endpoint local, BatchHandler on_batch,
    const Options& options) {
  return BindInternal(loop, local, options, nullptr, std::move(on_batch));
}

UdpSocket::~UdpSocket() {
  if (fd_.valid()) loop_.Remove(fd_.get());
}

Status UdpSocket::SendTo(std::span<const uint8_t> payload, Endpoint to) {
  sockaddr_in addr = ToSockaddr(to);
  ssize_t sent =
      ::sendto(fd_.get(), payload.data(), payload.size(), 0,
               reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (sent < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // UDP send buffer full: datagram lost, as it would be on the wire.
      return Error(ErrorCode::kWouldBlock, "UDP send buffer full");
    }
    return Errno("sendto");
  }
  if (tx_frames_ != nullptr) tx_frames_->Add();
  return Status::Ok();
}

Status UdpSocket::Connect(Endpoint remote) {
  sockaddr_in addr = ToSockaddr(remote);
  if (::connect(fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Errno(("connect " + remote.ToString()).c_str());
  }
  return Status::Ok();
}

Status UdpSocket::Send(std::span<const uint8_t> payload) {
  if (::send(fd_.get(), payload.data(), payload.size(), 0) < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Error(ErrorCode::kWouldBlock, "UDP send buffer full");
    }
    return Errno("send");
  }
  return Status::Ok();
}

size_t UdpSocket::RecvBatch(std::span<RecvItem> out) {
  UdpRecvArena& arena = *arena_;
  assert(!arena.lent &&
         "UDP socket read while another socket's batch handler holds the "
         "loop's receive slots");
  uint8_t* slots = arena.slots.get();
  size_t want = std::min(out.size(), kBatchSize);
  if (want == 0) return 0;

#if defined(__linux__)
  mmsghdr* msgs = arena.msgs;
  const bool want_control = rx_timestamps_ || pktinfo_;
  for (size_t i = 0; i < want; ++i) {
    msghdr& hdr = msgs[i].msg_hdr;
    hdr.msg_namelen = sizeof(sockaddr_in);
    hdr.msg_control = want_control ? arena.control[i] : nullptr;
    hdr.msg_controllen = want_control ? UdpRecvArena::kControlBytes : 0;
  }
  int got = ::recvmmsg(fd_.get(), msgs, static_cast<unsigned>(want), 0,
                       nullptr);
  if (got > 0) {
    const NanoDuration to_monotonic =
        rx_timestamps_ ? loop_.WallToMonotonic() : 0;
    for (int i = 0; i < got; ++i) {
      NanoTime rx_time = 0;
      Endpoint to = local_;
      if (want_control) {
        for (cmsghdr* cmsg = CMSG_FIRSTHDR(&msgs[i].msg_hdr); cmsg != nullptr;
             cmsg = CMSG_NXTHDR(&msgs[i].msg_hdr, cmsg)) {
          if (cmsg->cmsg_level == SOL_SOCKET &&
              cmsg->cmsg_type == SCM_TIMESTAMPNS) {
            timespec ts;
            std::memcpy(&ts, CMSG_DATA(cmsg), sizeof(ts));
            rx_time = static_cast<NanoTime>(ts.tv_sec) * kNanosPerSecond +
                      ts.tv_nsec + to_monotonic;
          } else if (cmsg->cmsg_level == IPPROTO_IP &&
                     cmsg->cmsg_type == IP_PKTINFO) {
            in_pktinfo info{};
            std::memcpy(&info, CMSG_DATA(cmsg), sizeof(info));
            to.addr = IpAddress(ntohl(info.ipi_addr.s_addr));
          }
        }
      }
      out[static_cast<size_t>(i)] = RecvItem{
          std::span<const uint8_t>(
              slots + static_cast<size_t>(i) * kRecvSlotSize,
              msgs[i].msg_len),
          FromSockaddr(arena.addrs[i]), to, rx_time};
    }
    return static_cast<size_t>(got);
  }
  if (got < 0 && errno != ENOSYS) return 0;  // EAGAIN or error
#endif

  // Portable fallback: one recvfrom per datagram into the same slots.
  size_t count = 0;
  while (count < want) {
    sockaddr_in from{};
    socklen_t from_len = sizeof(from);
    uint8_t* slot = slots + count * kRecvSlotSize;
    ssize_t n = ::recvfrom(fd_.get(), slot, kRecvSlotSize, 0,
                           reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) break;  // EAGAIN or error: stop draining
    out[count] = RecvItem{
        std::span<const uint8_t>(slot, static_cast<size_t>(n)),
        FromSockaddr(from), local_};
    ++count;
  }
  return count;
}

size_t UdpSocket::SendBatch(std::span<const UdpSendItem> batch) {
  size_t accepted = 0;
#if defined(__linux__)
  // Source addresses ride as IP_PKTINFO, and only on a wildcard socket: a
  // concretely-bound one sends exactly as it would without them.
  constexpr size_t kControlBytes = CMSG_SPACE(sizeof(in_pktinfo));
  alignas(cmsghdr) uint8_t control[kBatchSize][kControlBytes];
  while (accepted < batch.size()) {
    size_t chunk = std::min(batch.size() - accepted, kBatchSize);
    mmsghdr msgs[kBatchSize];
    iovec iovs[kBatchSize];
    sockaddr_in addrs[kBatchSize];
    std::memset(msgs, 0, sizeof(mmsghdr) * chunk);
    for (size_t i = 0; i < chunk; ++i) {
      const UdpSendItem& item = batch[accepted + i];
      iovs[i].iov_base = const_cast<uint8_t*>(item.payload.data());
      iovs[i].iov_len = item.payload.size();
      addrs[i] = ToSockaddr(item.to);
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(addrs[i]);
      if (pktinfo_ && !item.from.addr.IsUnspecified()) {
        std::memset(control[i], 0, kControlBytes);
        msgs[i].msg_hdr.msg_control = control[i];
        msgs[i].msg_hdr.msg_controllen = kControlBytes;
        cmsghdr* cmsg = CMSG_FIRSTHDR(&msgs[i].msg_hdr);
        cmsg->cmsg_level = IPPROTO_IP;
        cmsg->cmsg_type = IP_PKTINFO;
        cmsg->cmsg_len = CMSG_LEN(sizeof(in_pktinfo));
        in_pktinfo info{};
        info.ipi_spec_dst.s_addr = htonl(item.from.addr.value());
        std::memcpy(CMSG_DATA(cmsg), &info, sizeof(info));
      }
    }
    int sent = ::sendmmsg(fd_.get(), msgs, static_cast<unsigned>(chunk), 0);
    if (sent < 0) {
      if (errno == ENOSYS) break;  // fall through to the sendto loop
      // EAGAIN: send buffer full — remaining datagrams are dropped, as
      // they would be on the wire.
      return accepted;
    }
    accepted += static_cast<size_t>(sent);
    if (tx_frames_ != nullptr) tx_frames_->Add(static_cast<uint64_t>(sent));
    if (static_cast<size_t>(sent) < chunk) return accepted;  // buffer full
  }
  if (accepted == batch.size()) return accepted;
#endif

  for (size_t i = accepted; i < batch.size(); ++i) {
    if (!SendTo(batch[i].payload, batch[i].to).ok()) return accepted;
    ++accepted;
  }
  return accepted;
}

bool UdpSocket::Drain() {
  // Drain the socket in recvmmsg batches: level-triggered epoll would
  // re-arm anyway, but draining cuts wakeups at high rates. The per-call
  // cap bounds how long one busy socket can starve its loop siblings.
  constexpr size_t kMaxPerEvent = 8 * kBatchSize;
  UdpRecvArena& arena = *arena_;
  RecvItem* items = arena.items;
  size_t total = 0;
  while (total < kMaxPerEvent) {
    size_t got = RecvBatch({items, kBatchSize});
    total += got;
    if (got > 0) {
      if (rx_frames_ != nullptr) rx_frames_->Add(got);
      arena.lent = true;
      if (on_batch_) {
        on_batch_(std::span<const RecvItem>(items, got));
      } else if (on_datagram_) {
        for (size_t i = 0; i < got; ++i) {
          on_datagram_(items[i].payload, items[i].from);
        }
      }
      arena.lent = false;
    }
    // A short batch means the receive queue ran dry; asking again would
    // only cost a recvmmsg that returns EAGAIN.
    if (got < kBatchSize) return true;
  }
  return false;
}

Status UdpSocket::SetReadArmed(bool armed) {
  return loop_.Modify(fd_.get(), armed, /*want_write=*/false);
}

// --- TcpConnection ---

Result<std::unique_ptr<TcpConnection>> TcpConnection::Connect(
    EventLoop& loop, Endpoint remote, ConnectHandler on_connected,
    DataHandler on_data, CloseHandler on_close,
    const TcpConnectOptions& options) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket(TCP)");

  // The paper disables Nagle at the client (§5.2.1).
  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  if (!options.local.addr.IsUnspecified() || options.local.port != 0) {
    // SO_REUSEADDR lets back-to-back reconnects reuse a source port still
    // in TIME_WAIT from the previous stream.
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in local = ToSockaddr(options.local);
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&local),
               sizeof(local)) != 0) {
      return Errno(("bind " + options.local.ToString()).c_str());
    }
  }

  sockaddr_in addr = ToSockaddr(remote);
  int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return Errno(("connect " + remote.ToString()).c_str());
  }

  auto conn =
      std::unique_ptr<TcpConnection>(new TcpConnection(loop, std::move(fd)));
  conn->remote_ = remote;
  conn->on_connected_ = std::move(on_connected);
  conn->on_data_ = std::move(on_data);
  conn->on_close_ = std::move(on_close);
  LDP_RETURN_IF_ERROR(conn->Register(/*connecting=*/true));
  return conn;
}

TcpConnection::~TcpConnection() {
  *alive_ = false;
  if (fd_.valid()) loop_.Remove(fd_.get());
}

void TcpConnection::SetWriteWatermarks(size_t high, size_t low,
                                       WatermarkHandler handler) {
  high_watermark_ = high;
  low_watermark_ = std::min(low, high);
  on_watermark_ = std::move(handler);
}

Status TcpConnection::Register(bool connecting) {
  want_write_ = connecting;
  return loop_.Add(fd_.get(), /*want_read=*/true, /*want_write=*/connecting,
                   [this](IoEvents events) { OnIo(events); });
}

Status TcpConnection::Send(std::span<const uint8_t> data) {
  if (closed_) return Error(ErrorCode::kConnectionClosed, "send after close");
  if (!send_queue_.empty() || !connected_) {
    send_queue_.insert(send_queue_.end(), data.begin(), data.end());
    MaybeSignalHighWatermark();
    return Status::Ok();
  }
  ssize_t sent = ::send(fd_.get(), data.data(), data.size(), MSG_NOSIGNAL);
  if (sent < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) return Errno("send");
    sent = 0;
  }
  if (static_cast<size_t>(sent) < data.size()) {
    send_queue_.insert(send_queue_.end(), data.begin() + sent, data.end());
    if (!want_write_) {
      want_write_ = true;
      LDP_RETURN_IF_ERROR(loop_.Modify(fd_.get(), true, true));
    }
    MaybeSignalHighWatermark();
  }
  return Status::Ok();
}

void TcpConnection::MaybeSignalHighWatermark() {
  if (high_watermark_ == 0 || above_high_) return;
  if (send_queue_.size() < high_watermark_) return;
  above_high_ = true;
  // Stack copy: the handler may destroy this connection (and with it the
  // member functor) while executing.
  WatermarkHandler on_watermark = on_watermark_;
  if (on_watermark) on_watermark(true);
}

size_t TcpConnection::queued_bytes() const { return send_queue_.size(); }

void TcpConnection::OnIo(IoEvents events) {
  // Every handler below may destroy this connection from inside its own
  // callback; `alive` outlives the object and gates every member access
  // that follows a handler invocation.
  std::shared_ptr<bool> alive = alive_;

  if (!connected_) {
    // Connect completion (or failure).
    int error = 0;
    socklen_t len = sizeof(error);
    ::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &error, &len);
    if (events.error || error != 0) {
      closed_ = true;
      loop_.Remove(fd_.get());
      fd_.Reset();
      // Moved to the stack: the handler may destroy this connection, and
      // the function object must outlive its own invocation.
      ConnectHandler on_connected = std::move(on_connected_);
      if (on_connected) {
        on_connected(Error(ErrorCode::kIoError,
                           std::string("connect: ") + std::strerror(error)));
      }
      return;
    }
    if (events.writable || events.readable) {
      connected_ = true;
      auto local = LocalEndpoint(fd_.get());
      if (local.ok()) local_ = *local;
      want_write_ = !send_queue_.empty();
      auto status = loop_.Modify(fd_.get(), true, want_write_);
      (void)status;
      if (on_connected_) {
        // Connect fires exactly once: move the handler out so destroying
        // the connection from inside it cannot free an executing functor.
        ConnectHandler on_connected = std::move(on_connected_);
        on_connected(Status::Ok());
        if (!*alive || closed_) return;
      }
      FlushSendQueue();
      if (!*alive || closed_) return;
    }
    if (!events.readable) return;
  }

  if (events.readable) {
    // Stack copy (SSO-sized captures: no allocation): the handler may
    // destroy this connection, and the member functor with it.
    DataHandler on_data = on_data_;
    uint8_t buffer[65536];
    while (true) {
      ssize_t got = ::recv(fd_.get(), buffer, sizeof(buffer), 0);
      if (got > 0) {
        if (on_data) {
          on_data(std::span<const uint8_t>(buffer,
                                           static_cast<size_t>(got)));
        }
        if (!*alive || closed_) return;
        continue;
      }
      if (got == 0) {
        HandleClose(Status::Ok());  // clean peer EOF
        return;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        HandleClose(Errno("recv"));
        return;
      }
      break;  // EAGAIN: drained
    }
  }
  if (events.writable && connected_) {
    FlushSendQueue();
    if (!*alive || closed_) return;
  }
  if (events.hangup || events.error) {
    int error = 0;
    socklen_t len = sizeof(error);
    ::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &error, &len);
    if (events.error && error != 0) {
      errno = error;
      HandleClose(Errno("socket error"));
    } else {
      HandleClose(Status::Ok());  // hangup: peer closed
    }
  }
}

void TcpConnection::FlushSendQueue() {
  while (!send_queue_.empty()) {
    // deque is not contiguous: send in bounded contiguous chunks.
    uint8_t chunk[16384];
    size_t n = std::min(send_queue_.size(), sizeof(chunk));
    std::copy(send_queue_.begin(),
              send_queue_.begin() + static_cast<ptrdiff_t>(n), chunk);
    ssize_t sent = ::send(fd_.get(), chunk, n, MSG_NOSIGNAL);
    if (sent <= 0) break;
    send_queue_.erase(send_queue_.begin(),
                      send_queue_.begin() + sent);
  }
  bool need_write = !send_queue_.empty();
  if (need_write != want_write_) {
    want_write_ = need_write;
    auto status = loop_.Modify(fd_.get(), true, want_write_);
    (void)status;
  }
  // Signal last: the resume handler may call Send (re-entering this
  // connection) or even destroy it — nothing below touches members.
  if (above_high_ && send_queue_.size() <= low_watermark_) {
    above_high_ = false;
    WatermarkHandler on_watermark = on_watermark_;
    if (on_watermark) on_watermark(false);
  }
}

void TcpConnection::HandleClose(Status reason) {
  if (closed_) return;
  closed_ = true;
  loop_.Remove(fd_.get());
  fd_.Reset();
  // Moved to the stack: the handler commonly destroys this connection (the
  // function object must outlive its own invocation).
  CloseHandler on_close = std::move(on_close_);
  if (on_close) on_close(std::move(reason));
}

// --- TcpListener ---

Result<std::unique_ptr<TcpListener>> TcpListener::Listen(
    EventLoop& loop, Endpoint local, AcceptHandler on_accept,
    const TcpListenOptions& options) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Errno("socket(TCP listener)");

  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (options.reuse_port) {
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) != 0) {
      return Errno("setsockopt(SO_REUSEPORT)");
    }
  }

  sockaddr_in addr = ToSockaddr(local);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno(("bind " + local.ToString()).c_str());
  }
  // 4096: a mass-connection ramp (the fig13-15 bench opens tens of
  // thousands of connections in seconds) overflows the old 1024 backlog on
  // a single-core host; the kernel clamps to somaxconn either way.
  if (::listen(fd.get(), 4096) != 0) return Errno("listen");
  LDP_ASSIGN_OR_RETURN(Endpoint bound, LocalEndpoint(fd.get()));

  auto listener = std::unique_ptr<TcpListener>(
      new TcpListener(loop, std::move(fd), bound, std::move(on_accept)));
  TcpListener* raw = listener.get();
  LDP_RETURN_IF_ERROR(loop.Add(raw->fd_.get(), true, false,
                               [raw](IoEvents) { raw->OnReadable(); }));
  return listener;
}

TcpListener::~TcpListener() {
  if (fd_.valid()) loop_.Remove(fd_.get());
}

void TcpListener::Pause() {
  if (paused_ || !fd_.valid()) return;
  paused_ = true;
  auto status = loop_.Modify(fd_.get(), /*want_read=*/false,
                             /*want_write=*/false);
  (void)status;
}

void TcpListener::Resume() {
  if (!paused_ || !fd_.valid()) return;
  paused_ = false;
  auto status = loop_.Modify(fd_.get(), /*want_read=*/true,
                             /*want_write=*/false);
  (void)status;
}

void TcpListener::OnReadable() {
  // on_accept_ may Pause() this listener (connection cap reached): stop the
  // accept burst immediately and leave the rest in the kernel backlog.
  while (!paused_) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    int client = ::accept4(fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                           &len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client < 0) return;  // EAGAIN or transient error

    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::unique_ptr<TcpConnection>(
        new TcpConnection(loop_, Fd(client)));
    conn->connected_ = true;
    conn->remote_ = FromSockaddr(addr);
    auto local = LocalEndpoint(client);
    if (local.ok()) conn->local_ = *local;
    if (on_accept_) on_accept_(std::move(conn));
  }
}

Status TcpListener::AdoptHandlers(TcpConnection& conn,
                                  TcpConnection::DataHandler on_data,
                                  TcpConnection::CloseHandler on_close) {
  conn.on_data_ = std::move(on_data);
  conn.on_close_ = std::move(on_close);
  return conn.Register(/*connecting=*/false);
}

}  // namespace ldp::net
