// DNS-over-stream framing (RFC 1035 §4.2.2): each message is preceded by a
// two-octet big-endian length. StreamAssembler incrementally reassembles
// messages from arbitrary chunk boundaries — the core of TCP/TLS replay.
#ifndef LDPLAYER_DNS_FRAMING_H
#define LDPLAYER_DNS_FRAMING_H

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace ldp::dns {

// The largest payload a 2-byte length prefix can carry.
inline constexpr size_t kMaxFramedMessage = 65535;

// Prepends the 2-byte length prefix. Fails on an empty payload (a
// zero-length frame is rejected by every assembler) and on payloads over
// kMaxFramedMessage — silently truncating the length prefix would emit a
// corrupt frame that desyncs the peer's stream.
Result<Bytes> FrameMessage(std::span<const uint8_t> wire);

class StreamAssembler {
 public:
  // Backpressure bounds on the ready-message backlog. A peer that floods
  // complete frames faster than the server drains them hits these caps and
  // has its excess messages dropped (and counted) instead of growing the
  // deque without limit.
  struct Limits {
    size_t max_ready_messages = 1024;
    size_t max_ready_bytes = 4u << 20;
  };

  // Feeds a chunk of stream bytes. Complete messages become available via
  // NextMessage(). Returns an error if a frame declares length 0; once an
  // error has been returned the assembler is poisoned and every further
  // Feed reports the same failure (messages completed before the error
  // stay available exactly once).
  Status Feed(std::span<const uint8_t> chunk);

  // Pops the next complete message payload (without the length prefix), or
  // nullopt when none is buffered.
  std::optional<Bytes> NextMessage();

  // Bytes currently buffered but not yet forming a complete message.
  size_t pending_bytes() const { return buffer_.size(); }
  size_t ready_messages() const { return ready_.size(); }
  size_t ready_bytes() const { return ready_bytes_; }
  // Complete messages discarded because the backlog was at its limit.
  uint64_t dropped_messages() const { return dropped_messages_; }

  void set_limits(const Limits& limits) { limits_ = limits; }

 private:
  Bytes buffer_;
  std::deque<Bytes> ready_;
  Limits limits_;
  size_t ready_bytes_ = 0;
  uint64_t dropped_messages_ = 0;
  std::optional<Error> poisoned_;
};

}  // namespace ldp::dns

#endif  // LDPLAYER_DNS_FRAMING_H
