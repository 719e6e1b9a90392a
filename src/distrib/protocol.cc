#include "distrib/protocol.h"

#include <algorithm>
#include <cstring>

#include "trace/binary.h"

namespace ldp::distrib {
namespace {

// Frame = u32 payload_length | payload, payload = u8 type | body.
Bytes Seal(FrameType type, ByteWriter&& body) {
  Bytes inner = std::move(body).Take();
  ByteWriter out(inner.size() + 5);
  out.WriteU32(static_cast<uint32_t>(inner.size() + 1));
  out.WriteU8(static_cast<uint8_t>(type));
  out.WriteBytes(inner);
  return std::move(out).Take();
}

Status CheckType(const Frame& frame, FrameType expected, const char* name) {
  if (frame.type != expected) {
    return Error(ErrorCode::kInvalidArgument,
                 std::string("frame is not a ") + name);
  }
  return Status::Ok();
}

Status CheckDrained(const ByteReader& reader, const char* name) {
  if (!reader.AtEnd()) {
    return Error(ErrorCode::kParseError,
                 std::string(name) + " frame has trailing bytes");
  }
  return Status::Ok();
}

void WriteDuration(ByteWriter& writer, NanoDuration value) {
  writer.WriteU64(static_cast<uint64_t>(value));
}

Result<NanoDuration> ReadDuration(ByteReader& reader) {
  LDP_ASSIGN_OR_RETURN(uint64_t raw, reader.ReadU64());
  return static_cast<NanoDuration>(raw);
}

void WriteName(ByteWriter& writer, const std::string& name) {
  writer.WriteU16(static_cast<uint16_t>(std::min<size_t>(name.size(), 0xffff)));
  writer.WriteString(name);
}

Result<std::string> ReadName(ByteReader& reader) {
  LDP_ASSIGN_OR_RETURN(uint16_t length, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(auto span, reader.ReadSpan(length));
  return std::string(reinterpret_cast<const char*>(span.data()), span.size());
}

// Entry-count sanity bound for decoded snapshot sections: a registry has
// tens of names, not millions — a huge count is a corrupt frame.
constexpr uint32_t kMaxSnapshotEntries = 65536;

}  // namespace

// --- HELLO ---

Status CheckHello(const HelloFrame& hello) {
  if (Status config = replay::CheckConfig(hello.config); !config.ok()) {
    return Error(ErrorCode::kInvalidArgument,
                 "HELLO: " + config.error().message());
  }
  if (hello.credit_window == 0) {
    return Error(ErrorCode::kInvalidArgument, "HELLO with zero credits");
  }
  return Status::Ok();
}

Bytes EncodeHello(const HelloFrame& hello) {
  const replay::RealtimeConfig& c = hello.config;
  ByteWriter body(84);  // HELLO is fixed-size
  body.WriteU32(kMagic);
  body.WriteU16(kVersion);
  body.WriteU16(hello.agent_id);
  body.WriteU32(hello.credit_window);
  WriteDuration(body, hello.stats_interval);
  body.WriteU32(c.server.addr.value());
  body.WriteU16(c.server.port);
  uint8_t flags = 0;
  if (c.follow_trace_dst) flags |= 1;
  if (c.loopback_alias_dst) flags |= 2;
  if (c.fast_mode) flags |= 4;
  if (c.batch_udp) flags |= 8;
  body.WriteU8(flags);
  body.WriteU16(c.dst_port_override);
  // CheckHello bounds the four counts to 16 bits.
  body.WriteU16(static_cast<uint16_t>(c.n_distributors));
  body.WriteU16(static_cast<uint16_t>(c.queriers_per_distributor));
  WriteDuration(body, c.lookahead);
  body.WriteU64(c.seed);
  WriteDuration(body, c.query_timeout);
  body.WriteU16(static_cast<uint16_t>(c.max_retransmits));
  WriteDuration(body, c.tcp_idle_timeout);
  body.WriteU16(static_cast<uint16_t>(c.tcp_max_reconnects));
  body.WriteU16(c.tls_port);
  body.WriteU32(c.local_addr.value());
  return Seal(FrameType::kHello, std::move(body));
}

Result<HelloFrame> DecodeHello(const Frame& frame) {
  LDP_RETURN_IF_ERROR(CheckType(frame, FrameType::kHello, "HELLO"));
  ByteReader reader(frame.body);
  LDP_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) {
    return Error(ErrorCode::kParseError, "HELLO magic mismatch");
  }
  LDP_ASSIGN_OR_RETURN(uint16_t version, reader.ReadU16());
  if (version != kVersion) {
    return Error(ErrorCode::kUnsupported,
                 "protocol version " + std::to_string(version) +
                     " (this build speaks " + std::to_string(kVersion) + ")");
  }
  HelloFrame hello;
  replay::RealtimeConfig& c = hello.config;
  LDP_ASSIGN_OR_RETURN(hello.agent_id, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(hello.credit_window, reader.ReadU32());
  LDP_ASSIGN_OR_RETURN(hello.stats_interval, ReadDuration(reader));
  LDP_ASSIGN_OR_RETURN(uint32_t addr, reader.ReadU32());
  c.server.addr = IpAddress(addr);
  LDP_ASSIGN_OR_RETURN(c.server.port, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(uint8_t flags, reader.ReadU8());
  c.follow_trace_dst = (flags & 1) != 0;
  c.loopback_alias_dst = (flags & 2) != 0;
  c.fast_mode = (flags & 4) != 0;
  c.batch_udp = (flags & 8) != 0;
  LDP_ASSIGN_OR_RETURN(c.dst_port_override, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(c.n_distributors, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(c.queriers_per_distributor, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(c.lookahead, ReadDuration(reader));
  LDP_ASSIGN_OR_RETURN(c.seed, reader.ReadU64());
  LDP_ASSIGN_OR_RETURN(c.query_timeout, ReadDuration(reader));
  LDP_ASSIGN_OR_RETURN(c.max_retransmits, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(c.tcp_idle_timeout, ReadDuration(reader));
  LDP_ASSIGN_OR_RETURN(c.tcp_max_reconnects, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(c.tls_port, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(uint32_t local, reader.ReadU32());
  c.local_addr = IpAddress(local);
  LDP_RETURN_IF_ERROR(CheckDrained(reader, "HELLO"));
  LDP_RETURN_IF_ERROR(CheckHello(hello));
  return hello;
}

// --- small fixed frames ---

Bytes EncodeHelloAck(const HelloAckFrame& ack) {
  ByteWriter body(4);
  body.WriteU16(ack.version);
  body.WriteU16(ack.agent_id);
  return Seal(FrameType::kHelloAck, std::move(body));
}

Result<HelloAckFrame> DecodeHelloAck(const Frame& frame) {
  LDP_RETURN_IF_ERROR(CheckType(frame, FrameType::kHelloAck, "HELLO_ACK"));
  ByteReader reader(frame.body);
  HelloAckFrame ack;
  LDP_ASSIGN_OR_RETURN(ack.version, reader.ReadU16());
  LDP_ASSIGN_OR_RETURN(ack.agent_id, reader.ReadU16());
  LDP_RETURN_IF_ERROR(CheckDrained(reader, "HELLO_ACK"));
  return ack;
}

Bytes EncodeClockPing(const ClockPingFrame& ping) {
  ByteWriter body(8);
  body.WriteU64(static_cast<uint64_t>(ping.t1));
  return Seal(FrameType::kClockPing, std::move(body));
}

Result<ClockPingFrame> DecodeClockPing(const Frame& frame) {
  LDP_RETURN_IF_ERROR(CheckType(frame, FrameType::kClockPing, "CLOCK_PING"));
  ByteReader reader(frame.body);
  ClockPingFrame ping;
  LDP_ASSIGN_OR_RETURN(uint64_t t1, reader.ReadU64());
  ping.t1 = static_cast<NanoTime>(t1);
  LDP_RETURN_IF_ERROR(CheckDrained(reader, "CLOCK_PING"));
  return ping;
}

Bytes EncodeClockPong(const ClockPongFrame& pong) {
  ByteWriter body(16);
  body.WriteU64(static_cast<uint64_t>(pong.t1));
  body.WriteU64(static_cast<uint64_t>(pong.t2));
  return Seal(FrameType::kClockPong, std::move(body));
}

Result<ClockPongFrame> DecodeClockPong(const Frame& frame) {
  LDP_RETURN_IF_ERROR(CheckType(frame, FrameType::kClockPong, "CLOCK_PONG"));
  ByteReader reader(frame.body);
  ClockPongFrame pong;
  LDP_ASSIGN_OR_RETURN(uint64_t t1, reader.ReadU64());
  LDP_ASSIGN_OR_RETURN(uint64_t t2, reader.ReadU64());
  pong.t1 = static_cast<NanoTime>(t1);
  pong.t2 = static_cast<NanoTime>(t2);
  LDP_RETURN_IF_ERROR(CheckDrained(reader, "CLOCK_PONG"));
  return pong;
}

Bytes EncodeStart(const StartFrame& start) {
  ByteWriter body(8);
  body.WriteU64(static_cast<uint64_t>(start.epoch_mono));
  return Seal(FrameType::kStart, std::move(body));
}

Result<StartFrame> DecodeStart(const Frame& frame) {
  LDP_RETURN_IF_ERROR(CheckType(frame, FrameType::kStart, "START"));
  ByteReader reader(frame.body);
  StartFrame start;
  LDP_ASSIGN_OR_RETURN(uint64_t epoch, reader.ReadU64());
  start.epoch_mono = static_cast<NanoTime>(epoch);
  LDP_RETURN_IF_ERROR(CheckDrained(reader, "START"));
  return start;
}

Bytes EncodeChunk(const ChunkFrame& chunk) {
  ByteWriter body(64 + chunk.records.size() * 64);
  body.WriteU32(chunk.seq);
  body.WriteU32(static_cast<uint32_t>(chunk.records.size()));
  for (const auto& record : chunk.records) {
    trace::EncodeBinaryRecord(record, body);
  }
  return Seal(FrameType::kChunk, std::move(body));
}

Result<ChunkFrame> DecodeChunk(const Frame& frame) {
  LDP_RETURN_IF_ERROR(CheckType(frame, FrameType::kChunk, "CHUNK"));
  ByteReader reader(frame.body);
  ChunkFrame chunk;
  LDP_ASSIGN_OR_RETURN(chunk.seq, reader.ReadU32());
  LDP_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  if (count > kMaxChunkRecords) {
    return Error(ErrorCode::kParseError,
                 "CHUNK claims " + std::to_string(count) + " records");
  }
  // `count` is attacker-controlled; size the reserve by what the body could
  // actually hold (a binary trace record is at least 33 bytes on the wire)
  // so a tiny frame cannot demand a gigantic allocation up front.
  chunk.records.reserve(
      std::min<size_t>(count, reader.remaining() / 33 + 1));
  for (uint32_t i = 0; i < count; ++i) {
    LDP_ASSIGN_OR_RETURN(auto record, trace::DecodeBinaryRecord(reader));
    chunk.records.push_back(std::move(record));
  }
  LDP_RETURN_IF_ERROR(CheckDrained(reader, "CHUNK"));
  return chunk;
}

Bytes EncodeChunkAck(const ChunkAckFrame& ack) {
  ByteWriter body(4);
  body.WriteU32(ack.seq);
  return Seal(FrameType::kChunkAck, std::move(body));
}

Result<ChunkAckFrame> DecodeChunkAck(const Frame& frame) {
  LDP_RETURN_IF_ERROR(CheckType(frame, FrameType::kChunkAck, "CHUNK_ACK"));
  ByteReader reader(frame.body);
  ChunkAckFrame ack;
  LDP_ASSIGN_OR_RETURN(ack.seq, reader.ReadU32());
  LDP_RETURN_IF_ERROR(CheckDrained(reader, "CHUNK_ACK"));
  return ack;
}

Bytes EncodeInputDone(const InputDoneFrame& done) {
  ByteWriter body(8);
  body.WriteU64(done.total_records);
  return Seal(FrameType::kInputDone, std::move(body));
}

Result<InputDoneFrame> DecodeInputDone(const Frame& frame) {
  LDP_RETURN_IF_ERROR(CheckType(frame, FrameType::kInputDone, "INPUT_DONE"));
  ByteReader reader(frame.body);
  InputDoneFrame done;
  LDP_ASSIGN_OR_RETURN(done.total_records, reader.ReadU64());
  LDP_RETURN_IF_ERROR(CheckDrained(reader, "INPUT_DONE"));
  return done;
}

// --- metrics snapshot codec ---

void EncodeSnapshot(const stats::MetricsSnapshot& snapshot,
                    ByteWriter& writer) {
  writer.WriteU64(static_cast<uint64_t>(snapshot.taken_at));
  writer.WriteU32(static_cast<uint32_t>(snapshot.counters.size()));
  for (const auto& [name, value] : snapshot.counters) {
    WriteName(writer, name);
    writer.WriteU64(value);
  }
  writer.WriteU32(static_cast<uint32_t>(snapshot.gauges.size()));
  for (const auto& [name, value] : snapshot.gauges) {
    WriteName(writer, name);
    writer.WriteU64(static_cast<uint64_t>(value));
  }
  writer.WriteU32(static_cast<uint32_t>(snapshot.histograms.size()));
  for (const auto& [name, h] : snapshot.histograms) {
    WriteName(writer, name);
    writer.WriteU64(h.count);
    writer.WriteU64(h.sum);
    writer.WriteU64(h.max);
    uint32_t nonzero = 0;
    for (uint64_t b : h.buckets) nonzero += b != 0 ? 1 : 0;
    writer.WriteU32(nonzero);
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      writer.WriteU32(static_cast<uint32_t>(i));
      writer.WriteU64(h.buckets[i]);
    }
  }
}

Result<stats::MetricsSnapshot> DecodeSnapshot(ByteReader& reader) {
  stats::MetricsSnapshot snapshot;
  LDP_ASSIGN_OR_RETURN(uint64_t taken_at, reader.ReadU64());
  snapshot.taken_at = static_cast<NanoTime>(taken_at);
  LDP_ASSIGN_OR_RETURN(uint32_t n_counters, reader.ReadU32());
  if (n_counters > kMaxSnapshotEntries) {
    return Error(ErrorCode::kParseError, "snapshot counter count");
  }
  // As in DecodeChunk: bound each reserve by the bytes actually present
  // (name length prefix + u64 value = 10 bytes minimum per entry).
  snapshot.counters.reserve(
      std::min<size_t>(n_counters, reader.remaining() / 10 + 1));
  for (uint32_t i = 0; i < n_counters; ++i) {
    LDP_ASSIGN_OR_RETURN(std::string name, ReadName(reader));
    LDP_ASSIGN_OR_RETURN(uint64_t value, reader.ReadU64());
    snapshot.counters.emplace_back(std::move(name), value);
  }
  LDP_ASSIGN_OR_RETURN(uint32_t n_gauges, reader.ReadU32());
  if (n_gauges > kMaxSnapshotEntries) {
    return Error(ErrorCode::kParseError, "snapshot gauge count");
  }
  snapshot.gauges.reserve(
      std::min<size_t>(n_gauges, reader.remaining() / 10 + 1));
  for (uint32_t i = 0; i < n_gauges; ++i) {
    LDP_ASSIGN_OR_RETURN(std::string name, ReadName(reader));
    LDP_ASSIGN_OR_RETURN(uint64_t value, reader.ReadU64());
    snapshot.gauges.emplace_back(std::move(name),
                                 static_cast<int64_t>(value));
  }
  LDP_ASSIGN_OR_RETURN(uint32_t n_histograms, reader.ReadU32());
  if (n_histograms > kMaxSnapshotEntries) {
    return Error(ErrorCode::kParseError, "snapshot histogram count");
  }
  snapshot.histograms.reserve(
      std::min<size_t>(n_histograms, reader.remaining() / 30 + 1));
  for (uint32_t i = 0; i < n_histograms; ++i) {
    LDP_ASSIGN_OR_RETURN(std::string name, ReadName(reader));
    stats::HistogramSnapshot h;
    LDP_ASSIGN_OR_RETURN(h.count, reader.ReadU64());
    LDP_ASSIGN_OR_RETURN(h.sum, reader.ReadU64());
    LDP_ASSIGN_OR_RETURN(h.max, reader.ReadU64());
    LDP_ASSIGN_OR_RETURN(uint32_t nonzero, reader.ReadU32());
    if (nonzero > stats::LogHistogram::kNumBuckets) {
      return Error(ErrorCode::kParseError, "snapshot bucket count");
    }
    h.buckets.resize(stats::LogHistogram::kNumBuckets, 0);
    for (uint32_t j = 0; j < nonzero; ++j) {
      LDP_ASSIGN_OR_RETURN(uint32_t index, reader.ReadU32());
      LDP_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
      if (index >= stats::LogHistogram::kNumBuckets) {
        return Error(ErrorCode::kParseError, "snapshot bucket index");
      }
      h.buckets[index] = count;
    }
    snapshot.histograms.emplace_back(std::move(name), std::move(h));
  }
  return snapshot;
}

namespace {

// STATS and REPORT share one body: a snapshot, REPORT's the agent's
// final one.
Bytes SealSnapshot(FrameType type, const stats::MetricsSnapshot& snapshot) {
  ByteWriter body(512);
  EncodeSnapshot(snapshot, body);
  return Seal(type, std::move(body));
}

Result<stats::MetricsSnapshot> OpenSnapshot(const Frame& frame,
                                            FrameType type,
                                            const char* name) {
  LDP_RETURN_IF_ERROR(CheckType(frame, type, name));
  ByteReader reader(frame.body);
  LDP_ASSIGN_OR_RETURN(auto snapshot, DecodeSnapshot(reader));
  LDP_RETURN_IF_ERROR(CheckDrained(reader, name));
  return snapshot;
}

}  // namespace

Bytes EncodeStats(const stats::MetricsSnapshot& snapshot) {
  return SealSnapshot(FrameType::kStats, snapshot);
}

Result<stats::MetricsSnapshot> DecodeStats(const Frame& frame) {
  return OpenSnapshot(frame, FrameType::kStats, "STATS");
}

Bytes EncodeReport(const stats::MetricsSnapshot& final_metrics) {
  return SealSnapshot(FrameType::kReport, final_metrics);
}

Result<stats::MetricsSnapshot> DecodeReport(const Frame& frame) {
  return OpenSnapshot(frame, FrameType::kReport, "REPORT");
}

Bytes EncodeError(const ErrorFrame& error) {
  ByteWriter body(error.message.size());
  body.WriteString(error.message);
  return Seal(FrameType::kError, std::move(body));
}

Result<ErrorFrame> DecodeError(const Frame& frame) {
  LDP_RETURN_IF_ERROR(CheckType(frame, FrameType::kError, "ERROR"));
  ErrorFrame error;
  error.message.assign(reinterpret_cast<const char*>(frame.body.data()),
                       frame.body.size());
  return error;
}

Bytes EncodeBye() { return Seal(FrameType::kBye, ByteWriter(0)); }

// --- FrameAssembler ---

Status FrameAssembler::Feed(std::span<const uint8_t> data) {
  if (poisoned_.has_value()) return *poisoned_;
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  while (buffer_.size() - consumed_ >= 4) {
    const uint8_t* head = buffer_.data() + consumed_;
    uint32_t length = (uint32_t{head[0]} << 24) | (uint32_t{head[1]} << 16) |
                      (uint32_t{head[2]} << 8) | uint32_t{head[3]};
    if (length == 0 || length > kMaxFramePayload) {
      poisoned_ = Error(ErrorCode::kParseError,
                        "frame length " + std::to_string(length) +
                            " outside [1, " +
                            std::to_string(kMaxFramePayload) + "]");
      return *poisoned_;
    }
    if (buffer_.size() - consumed_ < 4 + static_cast<size_t>(length)) break;
    Frame frame;
    frame.type = static_cast<FrameType>(head[4]);
    frame.body.assign(head + 5, head + 4 + length);
    ready_.push_back(std::move(frame));
    consumed_ += 4 + static_cast<size_t>(length);
  }
  // Reclaim consumed prefix once it dominates the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return Status::Ok();
}

std::optional<Frame> FrameAssembler::Next() {
  if (ready_.empty()) return std::nullopt;
  Frame frame = std::move(ready_.front());
  ready_.pop_front();
  return frame;
}

}  // namespace ldp::distrib
