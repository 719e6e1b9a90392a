// AF_PACKET ring backend for DatagramPath: TPACKET_V3 mmap'd rx blocks,
// a TPACKET_V2 mmap'd tx ring, userspace Ethernet/IPv4/UDP codec, a BPF
// steering filter, and PACKET_FANOUT sharding. See DESIGN.md §12 for the
// full packet walk.
#ifndef LDPLAYER_NET_AFPACKET_H
#define LDPLAYER_NET_AFPACKET_H

#include <array>
#include <memory>

#include "common/bytes.h"
#include "net/datapath.h"
#include "net/packet_codec.h"

namespace ldp::net {

class AfPacketPath final : public DatagramPath {
 public:
  static Result<std::unique_ptr<DatagramPath>> Open(
      EventLoop& loop, Endpoint local, BatchHandler on_batch,
      const DatapathOptions& options);
  ~AfPacketPath() override;

  Status SendTo(std::span<const uint8_t> payload, Endpoint to) override;
  size_t SendBatch(std::span<const SendItem> batch) override;
  Status SetReadArmed(bool armed) override;
  bool PollReceive() override { return OnRxReadable(); }
  Endpoint local() const override { return local_; }
  DatapathKind kind() const override { return DatapathKind::kAfPacket; }

 private:
  // datapath.* instruments; every pointer may be null (no registry).
  struct Instruments {
    stats::Counter* rx_frames = nullptr;
    stats::Counter* rx_bytes = nullptr;
    stats::Counter* rx_parse_errors = nullptr;
    stats::Counter* rx_kernel_drops = nullptr;  // tp_drops, accumulated
    stats::Counter* tx_frames = nullptr;
    stats::Counter* tx_bytes = nullptr;
    stats::Counter* tx_ring_full = nullptr;
    stats::Counter* tx_wrong_format = nullptr;
    stats::Counter* tx_oversize = nullptr;
    stats::Counter* tx_kicks = nullptr;
    stats::Counter* tx_kick_errors = nullptr;
    stats::Counter* mac_fallbacks = nullptr;
    stats::LogHistogram* rx_blocks_per_wakeup = nullptr;  // ring occupancy
    stats::LogHistogram* rx_frames_per_wakeup = nullptr;
  };

  // Last-seen source MAC per peer IP, direct-mapped. Replies go back to
  // whatever L2 address the query came from; misses fall back to the
  // configured peer MAC, then broadcast (zeros on loopback).
  struct MacEntry {
    uint32_t ip = 0;
    bool valid = false;
    MacAddr mac;
  };

  explicit AfPacketPath(EventLoop& loop, BatchHandler on_batch)
      : loop_(loop), on_batch_(std::move(on_batch)) {}

  Status Init(Endpoint local, const DatapathOptions& options);
  void RegisterMetrics(stats::MetricsRegistry& registry);

  // Consumes retired blocks up to the per-wakeup cap; returns true when it
  // stopped because no retired block was left.
  bool OnRxReadable();
  // Parses every frame of one retired block into rx_items_, flushing the
  // batch to the handler as it fills; returns the frame count. The final
  // flush happens before the caller releases the block — payload spans
  // point into it. `to_monotonic` converts the frames' wall-clock stamps.
  size_t ConsumeBlock(uint8_t* block, NanoDuration to_monotonic);
  void FlushRxBatch();
  void PollKernelDrops();

  // Assembles one frame into a free tx slot (or the oversize fallback).
  // Returns false when the ring is full even after a kick.
  bool EmitFrame(std::span<const uint8_t> payload, Endpoint to, Endpoint from);
  bool EmitOversize(std::span<const uint8_t> payload, Endpoint to,
                    Endpoint from, const MacAddr& dst_mac);
  // Hands pending TP_STATUS_SEND_REQUEST slots to the kernel.
  void Kick();

  void LearnMac(IpAddress ip, const MacAddr& mac);
  MacAddr ResolveMac(IpAddress ip);

  EventLoop& loop_;
  BatchHandler on_batch_;
  Endpoint local_;
  Instruments metrics_;

  Fd shadow_fd_;  // kernel UDP socket: port reservation + ICMP suppression
  Fd rx_fd_;
  Fd tx_fd_;
  Fd oversize_fd_;  // plain AF_PACKET socket for frames beyond a tx slot

  unsigned ifindex_ = 0;
  bool is_loopback_ = false;
  MacAddr if_mac_;
  bool have_peer_mac_ = false;
  MacAddr peer_mac_;

  uint8_t* rx_map_ = nullptr;
  size_t rx_map_len_ = 0;
  size_t rx_block_bytes_ = 0;
  size_t rx_block_count_ = 0;
  size_t rx_block_idx_ = 0;

  uint8_t* tx_map_ = nullptr;
  size_t tx_map_len_ = 0;
  size_t tx_frame_bytes_ = 0;
  size_t tx_frame_count_ = 0;
  size_t tx_data_offset_ = 0;
  size_t tx_slot_capacity_ = 0;  // payload bytes a slot can carry
  size_t tx_idx_ = 0;
  bool tx_dirty_ = false;  // SEND_REQUEST slots awaiting a kick

  std::array<RecvItem, kBatchSize> rx_items_;
  size_t n_rx_items_ = 0;
  std::array<MacEntry, 256> mac_table_;
  Bytes oversize_buf_;
  uint16_t ip_id_ = 1;
};

}  // namespace ldp::net

#endif  // LDPLAYER_NET_AFPACKET_H
