#include "net/datapath.h"

#include <array>
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
// RecvItem::to is always the bound endpoint (kernel demux already matched
// it) and SendItem::from is ignored — the socket's binding is the source.
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
            [raw = path.get()](std::span<const UdpSocket::RecvItem> items) {
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
    std::array<UdpSendItem, kBatchSize> chunk;
    size_t accepted = 0;
    while (accepted < batch.size()) {
      const size_t n = std::min(batch.size() - accepted, kBatchSize);
      for (size_t i = 0; i < n; ++i) {
        chunk[i] = UdpSendItem{batch[accepted + i].payload,
                               batch[accepted + i].to};
      }
      const size_t sent = socket_->SendBatch({chunk.data(), n});
      accepted += sent;
      if (sent < n) break;  // kernel buffer full: drop the tail
    }
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

  void OnBatch(std::span<const UdpSocket::RecvItem> items) {
    std::array<RecvItem, kBatchSize> out;
    const Endpoint to = socket_->local();
    size_t i = 0;
    for (const auto& item : items) {
      out[i++] = RecvItem{item.payload, item.from, to, item.rx_time};
      if (i == kBatchSize) {
        if (rx_frames_ != nullptr) rx_frames_->Add(i);
        on_batch_({out.data(), i});
        i = 0;
      }
    }
    if (i > 0) {
      if (rx_frames_ != nullptr) rx_frames_->Add(i);
      on_batch_({out.data(), i});
    }
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
