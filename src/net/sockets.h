// Non-blocking UDP and TCP sockets over the event loop. IPv4 only (the
// testbed address plan is IPv4, like the paper's).
#ifndef LDPLAYER_NET_SOCKETS_H
#define LDPLAYER_NET_SOCKETS_H

#include <deque>
#include <functional>
#include <memory>
#include <span>

#include "common/bytes.h"
#include "common/ip.h"
#include "common/result.h"
#include "net/event_loop.h"
#include "stats/metrics.h"

namespace ldp::net {

// --- UDP ---

// One datagram of an outgoing batch; the payload must stay alive through
// the SendBatch call.
struct UdpSendItem {
  std::span<const uint8_t> payload;
  Endpoint to;
  // Source. Only a socket bound to the unspecified address honors it, and
  // only its address (an IP_PKTINFO control message naming ipi_spec_dst);
  // the port is always the socket's own. The default value, or any value
  // on a concretely-bound socket, leaves the source to the binding.
  Endpoint from;
};

// One received datagram of a batch; the payload points into the loop's
// receive slots (EventLoop::udp_recv_arena) and is valid only until the
// next RecvBatch call on any socket of the same loop.
struct UdpRecvItem {
  std::span<const uint8_t> payload;
  Endpoint from;
  // The address and port the datagram targeted: the bound endpoint on a
  // socket bound to a concrete address; on a socket bound to the
  // unspecified address, the destination the kernel reports through
  // IP_PKTINFO (the address a proxy client actually queried).
  Endpoint to;
  // Kernel receive time on CLOCK_MONOTONIC; 0 unless the socket was
  // bound with rx_timestamps. A caller that reads late (SetReadArmed)
  // still learns the arrival.
  NanoTime rx_time = 0;
};

struct UdpOptions {
  // SO_REUSEPORT: lets several sockets bind the same address so the
  // kernel shards incoming datagrams across them (one per worker).
  bool reuse_port = false;
  // SO_RCVBUF in bytes (0 = kernel default). High-rate servers raise this
  // so bursts queue in the kernel instead of dropping while the worker is
  // mid-batch.
  int recv_buffer_bytes = 0;
  // SO_TIMESTAMPNS: stamp every received datagram with the kernel's
  // receive time (RecvItem::rx_time), so a caller that reads late still
  // knows when each datagram arrived.
  bool rx_timestamps = false;
  // When set, the socket counts datapath.rx_frames (datagrams delivered to
  // its handler) and datapath.tx_frames (datagrams the kernel accepted)
  // here. Must outlive the socket.
  stats::MetricsRegistry* metrics = nullptr;
};

class UdpSocket {
 public:
  // Datagrams moved per recvmmsg/sendmmsg syscall. Received payloads live
  // in the loop's shared receive slots (EventLoop::udp_recv_arena),
  // kRecvSlotSize bytes each: the UDP maximum, so jumbo loopback datagrams
  // are never clipped.
  static constexpr size_t kBatchSize = 32;
  static constexpr size_t kRecvSlotSize = 65536;

  using RecvItem = UdpRecvItem;
  using SendItem = UdpSendItem;

  using DatagramHandler =
      std::function<void(std::span<const uint8_t>, Endpoint from)>;
  using BatchHandler = std::function<void(std::span<const RecvItem>)>;

  using Options = UdpOptions;

  // Binds to `local` (port 0 = ephemeral) and registers with the loop. A
  // socket bound to the unspecified address turns on IP_PKTINFO, so each
  // datagram reports the local address it targeted (RecvItem::to) and each
  // sent datagram can name its source (UdpSendItem::from).
  static Result<std::unique_ptr<UdpSocket>> Bind(EventLoop& loop,
                                                 Endpoint local,
                                                 DatagramHandler on_datagram,
                                                 const Options& options = Options());

  // Like Bind, but readiness delivers whole received batches: one handler
  // call per recvmmsg, so the callee can amortize its own work (and its
  // reply syscalls) across the batch.
  static Result<std::unique_ptr<UdpSocket>> Open(
      EventLoop& loop, Endpoint local, BatchHandler on_batch,
      const Options& options = Options());

  ~UdpSocket();

  Status SendTo(std::span<const uint8_t> payload, Endpoint to);

  // Fixes the peer: Send then needs no address, and the kernel delivers
  // this socket only datagrams from `remote`.
  Status Connect(Endpoint remote);
  // Sends to the connected peer.
  Status Send(std::span<const uint8_t> payload);

  // Receives up to min(out.size(), kBatchSize) datagrams with one recvmmsg
  // (portable fallback: recvfrom loop). Returns the number received; 0 on
  // EAGAIN. Payload spans point into the loop's shared receive slots and
  // are valid until the next RecvBatch call on any socket of this loop, so
  // a batch handler must not read another socket while it holds them.
  size_t RecvBatch(std::span<RecvItem> out);

  // Sends the whole batch via sendmmsg in kBatchSize chunks (portable
  // fallback: sendto loop). Returns how many datagrams the kernel accepted;
  // a short count means the send buffer filled and the rest were dropped,
  // as they would be on the wire.
  size_t SendBatch(std::span<const UdpSendItem> batch);

  // Reads received datagrams and hands them to the handler, as a
  // readiness event does: until the socket is empty or a per-call cap
  // (which bounds how long one busy socket can starve its loop siblings)
  // is reached. Returns true when it stopped because the socket was empty.
  bool Drain();

  // Read interest in the loop. A disarmed socket no longer wakes the loop
  // when datagrams arrive; they wait in the kernel until Drain or until it
  // is armed again (level-triggered, so a non-empty socket fires at once).
  Status SetReadArmed(bool armed);

  Endpoint local() const { return local_; }

 private:
  UdpSocket(EventLoop& loop, Fd fd, Endpoint local)
      : loop_(loop), fd_(std::move(fd)), local_(local) {}
  static Result<std::unique_ptr<UdpSocket>> BindInternal(
      EventLoop& loop, Endpoint local, const Options& options,
      DatagramHandler on_datagram, BatchHandler on_batch);

  EventLoop& loop_;
  UdpRecvArena* arena_ = nullptr;  // owned by loop_
  Fd fd_;
  Endpoint local_;
  bool rx_timestamps_ = false;
  bool pktinfo_ = false;  // bound to the unspecified address
  DatagramHandler on_datagram_;  // per-datagram mode
  BatchHandler on_batch_;        // batch mode (exactly one mode is set)
  stats::Counter* rx_frames_ = nullptr;  // set with Options::metrics
  stats::Counter* tx_frames_ = nullptr;
};

// --- TCP ---

struct TcpConnectOptions {
  // When set (address or port nonzero), bind the socket here before
  // connecting. The hierarchy proxy uses this to dial the meta server
  // *from* an emulated nameserver address so the server's split-horizon
  // view match sees the OQDA as the stream's source.
  Endpoint local;
};

// A bidirectional byte stream driven by the event loop. Plain TCP
// (TcpConnection) and TLS-over-TCP (net::TlsConnection) both implement it,
// so the DNS server and the replay querier hold either transport behind one
// pointer.
class StreamConn {
 public:
  using DataHandler = std::function<void(std::span<const uint8_t>)>;
  // Close reason: Ok() means a clean peer EOF (or hangup); an error status
  // carries the socket error (ECONNRESET, EPIPE, ...) so callers can tell
  // normal lifecycle from failure and decide whether to reconnect.
  using CloseHandler = std::function<void(Status)>;
  using ConnectHandler = std::function<void(Status)>;
  using WatermarkHandler = std::function<void(bool paused)>;

  virtual ~StreamConn() = default;

  // Buffered write: queues what the transport cannot take immediately.
  virtual Status Send(std::span<const uint8_t> data) = 0;

  // Write-queue backpressure: once queued_bytes() reaches `high` the handler
  // fires with paused=true; when the queue drains to `low` or below it fires
  // with paused=false. Advisory, like the kernel's send buffer.
  virtual void SetWriteWatermarks(size_t high, size_t low,
                                  WatermarkHandler handler) = 0;

  virtual bool connected() const = 0;
  virtual Endpoint local() const = 0;
  virtual Endpoint remote() const = 0;
  virtual size_t queued_bytes() const = 0;
};

class TcpConnection : public StreamConn {
 public:
  using DataHandler = StreamConn::DataHandler;
  using CloseHandler = StreamConn::CloseHandler;
  using ConnectHandler = StreamConn::ConnectHandler;
  using WatermarkHandler = StreamConn::WatermarkHandler;
  // Asynchronous connect; `on_connected` fires once with the outcome.
  static Result<std::unique_ptr<TcpConnection>> Connect(
      EventLoop& loop, Endpoint remote, ConnectHandler on_connected,
      DataHandler on_data, CloseHandler on_close,
      const TcpConnectOptions& options = TcpConnectOptions());

  ~TcpConnection() override;

  // Buffered write: queues what the kernel will not take immediately.
  Status Send(std::span<const uint8_t> data) override;

  // Write-queue backpressure: once queued_bytes() reaches `high` the handler
  // fires with paused=true; when the queue drains to `low` or below it fires
  // with paused=false. A paused caller should stop calling Send (nothing is
  // enforced — watermarks are advisory, like the kernel's send buffer).
  void SetWriteWatermarks(size_t high, size_t low,
                          WatermarkHandler handler) override;

  bool connected() const override { return connected_; }
  Endpoint local() const override { return local_; }
  Endpoint remote() const override { return remote_; }
  size_t queued_bytes() const override;

 private:
  friend class TcpListener;
  TcpConnection(EventLoop& loop, Fd fd) : loop_(loop), fd_(std::move(fd)) {}

  Status Register(bool connecting);
  void OnIo(IoEvents events);
  void FlushSendQueue();
  void MaybeSignalHighWatermark();
  void HandleClose(Status reason);

  EventLoop& loop_;
  Fd fd_;
  Endpoint local_;
  Endpoint remote_;
  bool connected_ = false;
  bool closed_ = false;
  bool want_write_ = false;
  ConnectHandler on_connected_;
  DataHandler on_data_;
  CloseHandler on_close_;
  std::deque<uint8_t> send_queue_;
  // Backpressure state; high == 0 disables watermarks.
  size_t high_watermark_ = 0;
  size_t low_watermark_ = 0;
  bool above_high_ = false;
  WatermarkHandler on_watermark_;
  // Any handler may destroy this connection (including from inside its own
  // callback); OnIo keeps a copy of this flag on the stack and re-checks it
  // after every handler invocation before touching members again.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

struct TcpListenOptions {
  // SO_REUSEPORT: lets every server shard bind its own listener on the same
  // address, so the kernel spreads incoming connections across shards by
  // 4-tuple hash — the TCP twin of the sharded UDP fast path.
  bool reuse_port = false;
};

class TcpListener {
 public:
  using AcceptHandler = std::function<void(std::unique_ptr<TcpConnection>)>;

  // The accepted connection is delivered unregistered for data; the callee
  // assigns handlers via AdoptHandlers and the listener registers it.
  static Result<std::unique_ptr<TcpListener>> Listen(
      EventLoop& loop, Endpoint local, AcceptHandler on_accept,
      const TcpListenOptions& options = TcpListenOptions());
  ~TcpListener();

  Endpoint local() const { return local_; }

  // Accept-pause flow control: Pause drops read interest so pending and new
  // connections wait in the kernel backlog instead of being accepted; Resume
  // re-arms it (level-triggered epoll re-fires if the backlog is non-empty).
  // The server uses this to stop an accept flood at its connection cap.
  void Pause();
  void Resume();
  bool paused() const { return paused_; }

  // Completes setup of an accepted connection: installs handlers and
  // registers it with the loop.
  static Status AdoptHandlers(TcpConnection& conn,
                              TcpConnection::DataHandler on_data,
                              TcpConnection::CloseHandler on_close);

 private:
  TcpListener(EventLoop& loop, Fd fd, Endpoint local,
              AcceptHandler on_accept)
      : loop_(loop),
        fd_(std::move(fd)),
        local_(local),
        on_accept_(std::move(on_accept)) {}
  void OnReadable();

  EventLoop& loop_;
  Fd fd_;
  Endpoint local_;
  AcceptHandler on_accept_;
  bool paused_ = false;
};

}  // namespace ldp::net

#endif  // LDPLAYER_NET_SOCKETS_H
