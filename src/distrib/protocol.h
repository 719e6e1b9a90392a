// Wire protocol between the replay controller and ldp_replay_agent
// processes (paper §2.6: controller → distributor/querier hosts). One TCP
// stream per agent carries length-prefixed frames:
//
//   u32 payload_length | u8 type | body
//
// Lifecycle: HELLO (the replay's RealtimeConfig + credit window) /
// HELLO_ACK, a CLOCK_PING/CLOCK_PONG burst for per-agent clock offsets,
// START (the synchronized replay epoch, already translated into the
// agent's monotonic clock), then CHUNK frames of binary trace records
// flowing controller→agent against CHUNK_ACK credits flowing back,
// periodic STATS snapshots, INPUT_DONE, one final REPORT after the agent
// drains, and BYE. ERROR may replace anything and is terminal.
//
// The agent's counts travel only as metrics snapshots: REPORT is the
// agent's final snapshot, in the same layout as STATS, and the controller
// reads the replay's transport counts from it through kTransportLedger.
// There is one protocol version; the controller and the agent are built
// from one tree, and HELLO carries exactly kVersion or is refused.
//
// Credit rule: the controller keeps at most `credit_window` un-acked
// CHUNKs per agent; the agent acks a chunk only after feeding ALL of its
// records into the replay engine (which it does within the configured
// look-ahead of real time and an outstanding-query cap) — so a slow agent
// stalls the controller's trace cursor instead of growing anyone's heap.
#ifndef LDPLAYER_DISTRIB_PROTOCOL_H
#define LDPLAYER_DISTRIB_PROTOCOL_H

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/ip.h"
#include "common/result.h"
#include "replay/realtime.h"
#include "stats/metrics.h"
#include "trace/record.h"

namespace ldp::distrib {

inline constexpr uint32_t kMagic = 0x4c445044;  // "LDPD"
inline constexpr uint16_t kVersion = 4;
// A frame larger than this is a corrupt stream, not a big chunk: even a
// 4096-record chunk of maximal records stays well under it.
inline constexpr uint32_t kMaxFramePayload = 8u << 20;
inline constexpr uint32_t kMaxChunkRecords = 1u << 20;

enum class FrameType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kClockPing = 3,
  kClockPong = 4,
  kStart = 5,
  kChunk = 6,
  kChunkAck = 7,
  kInputDone = 8,
  kStats = 9,
  kReport = 10,
  kError = 11,
  kBye = 12,
};

// --- frame bodies ---

// Controller → agent: the replay configuration plus the flow-control
// parameters. HELLO carries every field of `config` except the ones that
// stay on the agent's host: the metrics pointers (the agent counts into
// its own registry), start_delay (START sets the epoch), and the TCP
// reconnect backoff and write watermarks, which keep their defaults there.
struct HelloFrame {
  uint16_t agent_id = 0;
  uint32_t credit_window = 8;     // max un-acked chunks
  NanoDuration stats_interval = Seconds(1);
  replay::RealtimeConfig config;
};

// Whether `hello` can cross the wire unchanged and start a replay: its
// config passes replay::CheckConfig, whose count bounds are the 16 bits
// HELLO carries them in, and its credit window is positive. The controller
// checks before it dials any agent, the agent after it decodes. Encode
// only a HELLO this accepts: EncodeHello writes the counts in 16 bits.
Status CheckHello(const HelloFrame& hello);

struct HelloAckFrame {
  uint16_t version = kVersion;
  uint16_t agent_id = 0;
};

struct ClockPingFrame {
  NanoTime t1 = 0;  // controller monotonic at send
};

struct ClockPongFrame {
  NanoTime t1 = 0;  // echoed
  NanoTime t2 = 0;  // agent monotonic at receive
};

struct StartFrame {
  // The synchronized replay epoch expressed in the AGENT's monotonic
  // clock (the controller applies the measured offset before sending).
  NanoTime epoch_mono = 0;
};

struct ChunkFrame {
  uint32_t seq = 0;
  // Record timestamps are pre-rebased: nanoseconds after the replay
  // epoch, not absolute trace time.
  std::vector<trace::QueryRecord> records;
};

struct ChunkAckFrame {
  uint32_t seq = 0;
};

struct InputDoneFrame {
  uint64_t total_records = 0;
};

struct ErrorFrame {
  std::string message;
};

// --- encode / decode ---

struct Frame {
  FrameType type;
  Bytes body;
};

Bytes EncodeHello(const HelloFrame& hello);
Bytes EncodeHelloAck(const HelloAckFrame& ack);
Bytes EncodeClockPing(const ClockPingFrame& ping);
Bytes EncodeClockPong(const ClockPongFrame& pong);
Bytes EncodeStart(const StartFrame& start);
Bytes EncodeChunk(const ChunkFrame& chunk);
Bytes EncodeChunkAck(const ChunkAckFrame& ack);
Bytes EncodeInputDone(const InputDoneFrame& done);
Bytes EncodeStats(const stats::MetricsSnapshot& snapshot);
Bytes EncodeReport(const stats::MetricsSnapshot& final_metrics);
Bytes EncodeError(const ErrorFrame& error);
Bytes EncodeBye();

Result<HelloFrame> DecodeHello(const Frame& frame);
Result<HelloAckFrame> DecodeHelloAck(const Frame& frame);
Result<ClockPingFrame> DecodeClockPing(const Frame& frame);
Result<ClockPongFrame> DecodeClockPong(const Frame& frame);
Result<StartFrame> DecodeStart(const Frame& frame);
Result<ChunkFrame> DecodeChunk(const Frame& frame);
Result<ChunkAckFrame> DecodeChunkAck(const Frame& frame);
Result<InputDoneFrame> DecodeInputDone(const Frame& frame);
Result<stats::MetricsSnapshot> DecodeStats(const Frame& frame);
Result<stats::MetricsSnapshot> DecodeReport(const Frame& frame);
Result<ErrorFrame> DecodeError(const Frame& frame);

// Metrics snapshot wire form (shared by STATS and REPORT): counters,
// gauges, and histograms with sparse non-zero buckets, so the controller
// can merge per-agent distributions exactly.
void EncodeSnapshot(const stats::MetricsSnapshot& snapshot,
                    ByteWriter& writer);
Result<stats::MetricsSnapshot> DecodeSnapshot(ByteReader& reader);

// Incremental length-prefix reassembly with hard caps: Feed raw stream
// bytes, pop complete frames with Next. A length over kMaxFramePayload
// (or an empty payload — every frame has at least its type byte) poisons
// the assembler and fails the session.
class FrameAssembler {
 public:
  Status Feed(std::span<const uint8_t> data);
  std::optional<Frame> Next();

 private:
  Bytes buffer_;
  size_t consumed_ = 0;
  std::deque<Frame> ready_;
  std::optional<Error> poisoned_;
};

}  // namespace ldp::distrib

#endif  // LDPLAYER_DISTRIB_PROTOCOL_H
