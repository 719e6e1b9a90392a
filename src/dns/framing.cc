#include "dns/framing.h"

namespace ldp::dns {

Result<Bytes> FrameMessage(std::span<const uint8_t> wire) {
  if (wire.empty()) {
    return Error(ErrorCode::kInvalidArgument, "cannot frame an empty message");
  }
  if (wire.size() > kMaxFramedMessage) {
    return Error(ErrorCode::kOutOfRange,
                 "message of " + std::to_string(wire.size()) +
                     " bytes exceeds the 65535-byte stream frame limit");
  }
  Bytes out;
  out.reserve(wire.size() + 2);
  out.push_back(static_cast<uint8_t>(wire.size() >> 8));
  out.push_back(static_cast<uint8_t>(wire.size()));
  out.insert(out.end(), wire.begin(), wire.end());
  return out;
}

Status StreamAssembler::Feed(std::span<const uint8_t> chunk) {
  if (poisoned_.has_value()) return *poisoned_;
  buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
  size_t cursor = 0;
  while (buffer_.size() - cursor >= 2) {
    size_t len = (static_cast<size_t>(buffer_[cursor]) << 8) |
                 buffer_[cursor + 1];
    if (len == 0) {
      // Discard the bytes consumed so far before failing, so a caller that
      // (incorrectly) keeps feeding cannot replay already-delivered
      // messages; poisoning makes the failure sticky either way.
      buffer_.erase(buffer_.begin(), buffer_.begin() + cursor);
      poisoned_ = Error(ErrorCode::kParseError, "zero-length DNS frame");
      return *poisoned_;
    }
    if (buffer_.size() - cursor - 2 < len) break;
    if (ready_.size() >= limits_.max_ready_messages ||
        ready_bytes_ + len > limits_.max_ready_bytes) {
      ++dropped_messages_;
    } else {
      ready_.emplace_back(buffer_.begin() + cursor + 2,
                          buffer_.begin() + cursor + 2 + len);
      ready_bytes_ += len;
    }
    cursor += 2 + len;
  }
  buffer_.erase(buffer_.begin(), buffer_.begin() + cursor);
  return Status::Ok();
}

std::optional<Bytes> StreamAssembler::NextMessage() {
  if (ready_.empty()) return std::nullopt;
  Bytes out = std::move(ready_.front());
  ready_.pop_front();
  ready_bytes_ -= out.size();
  return out;
}

}  // namespace ldp::dns
