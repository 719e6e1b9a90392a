// DatagramPath: the transport seam between the DNS engines and "how bytes
// reach them". ShardedDnsServer, HierarchyProxy, and the realtime replay
// querier all speak this interface; what sits underneath is selected at
// open time:
//
//   kEpoll     — the existing kernel UDP sockets with recvmmsg/sendmmsg
//                batching (net/sockets.h). Default; no capabilities needed.
//   kAfPacket  — AF_PACKET mmap rings (TPACKET_V3 rx, TPACKET_V2 tx) with
//                userspace Ethernet/IPv4/UDP assembly (net/packet_codec.h),
//                a BPF steering filter, and PACKET_FANOUT across shards.
//                Needs CAP_NET_RAW; see net/afpacket.cc for the packet walk.
//
// The interface is deliberately the UdpSocket batch shape plus two
// per-datagram address fields: RecvItem::to (the local address a datagram
// actually targeted, so one wildcard path listens for every emulated
// nameserver address at once) and SendItem::from (the reply's source, so
// the proxy answers from the queried address over that same path). The
// afpacket ring reads and writes them in the packet headers; the epoll
// backend, when bound to the unspecified address, carries them in
// IP_PKTINFO control messages.
#ifndef LDPLAYER_NET_DATAPATH_H
#define LDPLAYER_NET_DATAPATH_H

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/ip.h"
#include "common/result.h"
#include "net/event_loop.h"
#include "net/sockets.h"
#include "stats/metrics.h"

namespace ldp::net {

enum class DatapathKind {
  kEpoll,
  kAfPacket,
};

// "epoll" / "afpacket" (the --datapath flag values).
Result<DatapathKind> ParseDatapathKind(std::string_view text);
std::string_view DatapathKindName(DatapathKind kind);

struct AfPacketOptions {
  // Interface the rings attach to. Loopback works out of the box for
  // afpacket<->afpacket runs; mixed epoll/afpacket loopback runs need
  // net.ipv4.conf.lo.route_localnet=1 (see DESIGN.md §12).
  std::string interface = "lo";

  // rx ring geometry (TPACKET_V3: fixed blocks, variable-size frames).
  // Blocks hand over to userspace when full or after the retire timeout,
  // whichever comes first — the timeout bounds added latency at low rate.
  size_t rx_block_bytes = 1 << 20;
  size_t rx_block_count = 16;
  size_t rx_frame_bytes = 2048;  // V3 treats this as a sizing hint
  unsigned rx_retire_timeout_ms = 1;

  // tx ring geometry (TPACKET_V2: fixed-size slots). A reply frame is
  // assembled directly in a free slot (headers + checksums + payload, no
  // staging copy); payloads that exceed a slot fall back to a plain
  // sendto on a companion socket.
  size_t tx_frame_bytes = 4096;
  size_t tx_frame_count = 512;

  // Join a PACKET_FANOUT(hash) group (id derived from the bound port) so
  // sibling shard rings split the flow space in-kernel — the AF_PACKET
  // equivalent of the SO_REUSEPORT sharding the epoll path uses.
  bool fanout = false;

  // Destination MAC for tx when no frame from that peer IP has been seen
  // yet. Empty: the per-IP learned table, then broadcast (zeros on a
  // loopback interface). Set this when talking through a veth pair or a
  // real gateway ("aa:bb:cc:dd:ee:ff").
  std::string peer_mac;
};

struct DatapathOptions {
  DatapathKind kind = DatapathKind::kEpoll;
  // Kernel-socket options. The afpacket backend honors reuse_port for its
  // shadow socket (the kernel UDP socket that reserves the port, resolves
  // ephemeral binds, and silences ICMP port-unreachable while a drop-all
  // BPF filter keeps its queue empty).
  UdpOptions udp;
  AfPacketOptions afpacket;
  // When set, the path registers datapath.* instruments here (rx/tx frame
  // counters for both backends; ring occupancy, frames/wakeup, kernel-drop
  // and fallback counters for afpacket). Must outlive the path.
  stats::MetricsRegistry* metrics = nullptr;
};

class DatagramPath {
 public:
  // Datagrams moved per handler call / send chunk, matching UdpSocket so
  // consumers keep their batch staging sizes.
  static constexpr size_t kBatchSize = UdpSocket::kBatchSize;

  // One received datagram; the payload is valid only during the handler
  // call. `to` is the local address/port the datagram targeted: local() on
  // a path bound to a concrete address, the address the peer actually
  // queried (the proxy's OQDA) on a wildcard path of either backend.
  // `rx_time` is when it arrived, on CLOCK_MONOTONIC, from the kernel's
  // receive timestamp: the afpacket ring always carries one; the epoll
  // backend fills it when opened with udp.rx_timestamps, else 0. A caller
  // that reads late (see SetReadArmed) still learns the arrival.
  using RecvItem = UdpRecvItem;

  // One datagram of an outgoing batch; the payload must stay alive through
  // the SendBatch call. `from` overrides the source: a default-constructed
  // endpoint sends from local(). The afpacket backend writes any other
  // value into the IPv4/UDP headers (source spoofing is the point — the
  // proxy answers from emulated addresses over one ring). The epoll
  // backend honors the address on a wildcard path (IP_PKTINFO
  // ipi_spec_dst; it must be a local address, and the port is always
  // local().port) and ignores `from` on a concretely-bound path, whose
  // binding is the source.
  using SendItem = UdpSendItem;

  using BatchHandler = std::function<void(std::span<const RecvItem>)>;

  virtual ~DatagramPath() = default;

  // Binds `local` (port 0 = ephemeral) and registers rx readiness with the
  // loop; whole batches are delivered per handler call. An unspecified
  // address (0.0.0.0) makes a wildcard path on either backend: the
  // afpacket ring matches on port alone, the epoll socket turns on
  // IP_PKTINFO; both fill RecvItem::to and honor SendItem::from.
  static Result<std::unique_ptr<DatagramPath>> Open(
      EventLoop& loop, Endpoint local, BatchHandler on_batch,
      const DatapathOptions& options = DatapathOptions());

  virtual Status SendTo(std::span<const uint8_t> payload, Endpoint to) = 0;

  // Sends the batch; returns how many datagrams were accepted. A short
  // count means the tx ring / socket buffer filled and the rest were
  // dropped, as they would be on the wire.
  virtual size_t SendBatch(std::span<const SendItem> batch) = 0;

  // Read interest in the loop. A disarmed path no longer wakes the loop
  // when datagrams arrive; they wait in the socket or ring until
  // PollReceive, or until the path is armed again (level-triggered, so
  // anything waiting fires at once). The replay distributor disarms its
  // queriers while sends are imminent and reads replies after each send.
  virtual Status SetReadArmed(bool armed) = 0;

  // Delivers waiting datagrams to the batch handler exactly as a readiness
  // event would, up to the same per-event cap. Returns true when nothing
  // was left waiting; false means it stopped at the cap.
  virtual bool PollReceive() = 0;

  virtual Endpoint local() const = 0;
  virtual DatapathKind kind() const = 0;
};

// Checks whether the afpacket backend can run with `options` on this host:
// interface exists, AF_PACKET sockets are permitted (CAP_NET_RAW), the
// kernel offers TPACKET_V3 rx and TPACKET_V2 tx rings, and peer_mac (if
// set) parses. The error message says what to fix — this is what tools
// surface verbatim and what benches/CI use to detect-and-skip.
Status ProbeAfPacket(const AfPacketOptions& options);

}  // namespace ldp::net

#endif  // LDPLAYER_NET_DATAPATH_H
