#include "net/datapath.h"

#include <utility>

#include "net/afpacket.h"

namespace ldp::net {

Result<DatapathKind> ParseDatapathKind(std::string_view text) {
  if (text == "epoll") return DatapathKind::kEpoll;
  if (text == "afpacket") return DatapathKind::kAfPacket;
  return Error(ErrorCode::kInvalidArgument,
               "unknown datapath '" + std::string(text) +
                   "' (expected epoll or afpacket)");
}

std::string_view DatapathKindName(DatapathKind kind) {
  switch (kind) {
    case DatapathKind::kEpoll:
      return "epoll";
    case DatapathKind::kAfPacket:
      return "afpacket";
  }
  return "?";
}

namespace {

// The default backend: a thin adapter over the kernel-socket batch path.
// Bound to a concrete address, RecvItem::to is always that endpoint and
// SendItem::from is ignored: the binding is the source. Bound to the
// unspecified address, the socket runs with IP_PKTINFO, so `to` is each
// datagram's destination and `from` picks each reply's source address.
class EpollPath final : public DatagramPath {
 public:
  static Result<std::unique_ptr<DatagramPath>> Open(
      EventLoop& loop, Endpoint local, BatchHandler on_batch,
      const DatapathOptions& options) {
    auto path = std::unique_ptr<EpollPath>(new EpollPath(std::move(on_batch)));
    if (options.metrics != nullptr) {
      path->rx_frames_ = options.metrics->AddCounter("datapath.rx_frames");
      path->tx_frames_ = options.metrics->AddCounter("datapath.tx_frames");
    }
    LDP_ASSIGN_OR_RETURN(
        path->socket_,
        UdpSocket::BindBatch(
            loop, local,
            [raw = path.get()](std::span<const RecvItem> items) {
              raw->OnBatch(items);
            },
            options.udp));
    return std::unique_ptr<DatagramPath>(std::move(path));
  }

  Status SendTo(std::span<const uint8_t> payload, Endpoint to) override {
    if (tx_frames_ != nullptr) tx_frames_->Add();
    return socket_->SendTo(payload, to);
  }

  size_t SendBatch(std::span<const SendItem> batch) override {
    const size_t accepted = socket_->SendBatch(batch);
    if (tx_frames_ != nullptr) tx_frames_->Add(accepted);
    return accepted;
  }

  Status SetReadArmed(bool armed) override {
    return socket_->SetReadArmed(armed);
  }
  bool PollReceive() override { return socket_->Drain(); }

  Endpoint local() const override { return socket_->local(); }
  DatapathKind kind() const override { return DatapathKind::kEpoll; }

 private:
  explicit EpollPath(BatchHandler on_batch) : on_batch_(std::move(on_batch)) {}

  void OnBatch(std::span<const RecvItem> items) {
    if (rx_frames_ != nullptr) rx_frames_->Add(items.size());
    on_batch_(items);
  }

  BatchHandler on_batch_;
  std::unique_ptr<UdpSocket> socket_;
  stats::Counter* rx_frames_ = nullptr;
  stats::Counter* tx_frames_ = nullptr;
};

}  // namespace

Result<std::unique_ptr<DatagramPath>> DatagramPath::Open(
    EventLoop& loop, Endpoint local, BatchHandler on_batch,
    const DatapathOptions& options) {
  switch (options.kind) {
    case DatapathKind::kEpoll:
      return EpollPath::Open(loop, local, std::move(on_batch), options);
    case DatapathKind::kAfPacket:
      return AfPacketPath::Open(loop, local, std::move(on_batch), options);
  }
  return Error(ErrorCode::kInvalidArgument, "unknown datapath kind");
}

}  // namespace ldp::net
