// Distributed replay: wire-protocol codecs, frame reassembly under
// adversarial and fragmented input, credit-based backpressure, controller
// ↔ agent loopback end-to-end, and mid-run agent death.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <thread>

#include "distrib/agent.h"
#include "distrib/controller.h"
#include "distrib/protocol.h"
#include "net/event_loop.h"
#include "server/socket_server.h"
#include "stats/snapshot_io.h"
#include "workload/traces.h"
#include "zone/masterfile.h"

namespace ldp::distrib {
namespace {

// --- codec tests ---

std::vector<trace::QueryRecord> SampleRecords(size_t n) {
  workload::FixedIntervalConfig config;
  config.interarrival = Millis(2);
  config.duration = Millis(2) * static_cast<int64_t>(n);
  config.n_clients = 7;
  return workload::MakeFixedIntervalTrace(config);
}

// Feeds `wire` to an assembler in pieces of `step` bytes and returns the
// completed frames.
std::vector<Frame> Reassemble(const Bytes& wire, size_t step) {
  FrameAssembler assembler;
  std::vector<Frame> frames;
  for (size_t i = 0; i < wire.size(); i += step) {
    size_t len = std::min(step, wire.size() - i);
    EXPECT_TRUE(
        assembler.Feed(std::span(wire.data() + i, len)).ok());
    while (auto frame = assembler.Next()) frames.push_back(std::move(*frame));
  }
  return frames;
}

TEST(ProtocolTest, HelloRoundTripsThroughFragmentedStream) {
  HelloFrame hello;
  hello.agent_id = 3;
  hello.credit_window = 5;
  hello.stats_interval = Millis(250);
  // Every field HELLO carries, each off its default.
  replay::RealtimeConfig& c = hello.config;
  c.server = Endpoint{IpAddress(192, 0, 2, 1), 5353};
  c.follow_trace_dst = true;
  c.dst_port_override = 9953;
  c.loopback_alias_dst = true;
  c.fast_mode = true;
  c.batch_udp = false;
  c.n_distributors = 4;
  c.queriers_per_distributor = 0xffff;
  c.lookahead = Millis(123);
  c.seed = 0xfeedbeefcafe;
  c.query_timeout = Seconds(3);
  c.max_retransmits = 2;
  c.tcp_idle_timeout = Seconds(9);
  c.tcp_max_reconnects = 0xffff;
  c.tls_port = 8853;
  c.local_addr = IpAddress(127, 0, 0, 5);
  ASSERT_TRUE(CheckHello(hello).ok());

  Bytes wire = EncodeHello(hello);
  // Byte-at-a-time reassembly must produce the identical frame.
  auto frames = Reassemble(wire, 1);
  ASSERT_EQ(frames.size(), 1u);
  auto decoded = DecodeHello(frames[0]);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded->agent_id, hello.agent_id);
  EXPECT_EQ(decoded->credit_window, hello.credit_window);
  EXPECT_EQ(decoded->stats_interval, hello.stats_interval);
  const replay::RealtimeConfig& d = decoded->config;
  EXPECT_EQ(d.server.addr.value(), c.server.addr.value());
  EXPECT_EQ(d.server.port, c.server.port);
  EXPECT_EQ(d.follow_trace_dst, c.follow_trace_dst);
  EXPECT_EQ(d.dst_port_override, c.dst_port_override);
  EXPECT_EQ(d.loopback_alias_dst, c.loopback_alias_dst);
  EXPECT_EQ(d.fast_mode, c.fast_mode);
  EXPECT_EQ(d.batch_udp, c.batch_udp);
  EXPECT_EQ(d.n_distributors, c.n_distributors);
  EXPECT_EQ(d.queriers_per_distributor, c.queriers_per_distributor);
  EXPECT_EQ(d.lookahead, c.lookahead);
  EXPECT_EQ(d.seed, c.seed);
  EXPECT_EQ(d.query_timeout, c.query_timeout);
  EXPECT_EQ(d.max_retransmits, c.max_retransmits);
  EXPECT_EQ(d.tcp_idle_timeout, c.tcp_idle_timeout);
  EXPECT_EQ(d.tcp_max_reconnects, c.tcp_max_reconnects);
  EXPECT_EQ(d.tls_port, c.tls_port);
  EXPECT_EQ(d.local_addr, c.local_addr);
  // The agent-side pointers are never carried.
  EXPECT_EQ(d.metrics, nullptr);
  EXPECT_EQ(d.snapshotter, nullptr);
}

TEST(ProtocolTest, HelloRequiresExactlyThisVersion) {
  // The controller and the agent ship from one tree: any other version,
  // older or newer, is refused.
  auto frames = Reassemble(EncodeHello(HelloFrame{}), 1);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_TRUE(DecodeHello(frames[0]).ok());
  for (uint16_t version : {uint16_t{1}, uint16_t{2}, uint16_t{3},
                           static_cast<uint16_t>(kVersion + 1)}) {
    Frame other = frames[0];
    other.body[4] = static_cast<uint8_t>(version >> 8);  // after the magic
    other.body[5] = static_cast<uint8_t>(version);
    auto decoded = DecodeHello(other);
    ASSERT_FALSE(decoded.ok()) << version;
    EXPECT_EQ(decoded.error().code(), ErrorCode::kUnsupported) << version;
  }
}

TEST(ProtocolTest, HelloRejectsNonPositiveQueryTimeout) {
  // A replay without a query timeout could never settle its ledger, so a
  // HELLO carrying one is refused as outside input.
  for (NanoDuration timeout : {NanoDuration{0}, -Millis(1)}) {
    HelloFrame hello;
    hello.config.query_timeout = timeout;
    auto frames = Reassemble(EncodeHello(hello), 1);
    ASSERT_EQ(frames.size(), 1u);
    auto decoded = DecodeHello(frames[0]);
    ASSERT_FALSE(decoded.ok()) << timeout;
    EXPECT_EQ(decoded.error().code(), ErrorCode::kInvalidArgument);
  }
}

// Each config HELLO could only carry by narrowing a count to 16 bits (or
// clamping a negative one).
std::vector<replay::RealtimeConfig> ConfigsHelloCannotCarry() {
  std::vector<replay::RealtimeConfig> configs(7);
  configs[0].n_distributors = 0x10000;
  configs[1].n_distributors = 0;
  configs[2].queriers_per_distributor = 0x10000;
  configs[3].max_retransmits = 0x10000;
  configs[4].max_retransmits = -1;
  configs[5].tcp_max_reconnects = 0x10000;
  configs[6].tcp_max_reconnects = -1;
  return configs;
}

TEST(ProtocolTest, CheckHelloRefusesCountsThatDoNotFit) {
  for (const auto& config : ConfigsHelloCannotCarry()) {
    Status checked = CheckHello(HelloFrame{.config = config});
    ASSERT_FALSE(checked.ok());
    EXPECT_EQ(checked.error().code(), ErrorCode::kInvalidArgument);
  }
  // The largest values that fit cross unchanged.
  HelloFrame edge;
  edge.config.n_distributors = 0xffff;
  edge.config.max_retransmits = 0xffff;
  ASSERT_TRUE(CheckHello(edge).ok());
  auto decoded = DecodeHello(Reassemble(EncodeHello(edge), 64)[0]);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded->config.n_distributors, 0xffffu);
  EXPECT_EQ(decoded->config.max_retransmits, 0xffff);
}

TEST(ProtocolTest, ChunkRoundTripPreservesRecords) {
  ChunkFrame chunk;
  chunk.seq = 42;
  chunk.records = SampleRecords(25);
  Bytes wire = EncodeChunk(chunk);
  auto frames = Reassemble(wire, 3);
  ASSERT_EQ(frames.size(), 1u);
  auto decoded = DecodeChunk(frames[0]);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded->seq, 42u);
  ASSERT_EQ(decoded->records.size(), chunk.records.size());
  for (size_t i = 0; i < chunk.records.size(); ++i) {
    EXPECT_EQ(decoded->records[i], chunk.records[i]) << "record " << i;
  }
}

TEST(ProtocolTest, ManyFramesInOneBuffer) {
  Bytes wire;
  auto append = [&wire](Bytes frame) {
    wire.insert(wire.end(), frame.begin(), frame.end());
  };
  append(EncodeHelloAck(HelloAckFrame{.version = kVersion, .agent_id = 9}));
  append(EncodeClockPong(ClockPongFrame{.t1 = 111, .t2 = 222}));
  append(EncodeChunkAck(ChunkAckFrame{.seq = 7}));
  append(EncodeBye());
  auto frames = Reassemble(wire, wire.size());
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0].type, FrameType::kHelloAck);
  EXPECT_EQ(frames[1].type, FrameType::kClockPong);
  EXPECT_EQ(frames[2].type, FrameType::kChunkAck);
  EXPECT_EQ(frames[3].type, FrameType::kBye);
  auto pong = DecodeClockPong(frames[1]);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->t1, 111);
  EXPECT_EQ(pong->t2, 222);
}

TEST(ProtocolTest, SnapshotRoundTripsExactly) {
  stats::MetricsRegistry registry;
  auto* sent = registry.AddCounter("replay.sent");
  auto* inflight = registry.AddGauge("replay.inflight");
  auto* latency = registry.AddHistogram("replay.latency_ns");
  sent->Add(12345);
  inflight->Set(-3);
  for (uint64_t v : {100u, 200u, 1u << 20, 5u}) latency->Record(v);

  stats::MetricsSnapshot snapshot = registry.Snapshot();
  snapshot.taken_at = 987654321;
  ByteWriter writer;
  EncodeSnapshot(snapshot, writer);
  Bytes wire = std::move(writer).Take();
  ByteReader reader(wire);
  auto decoded = DecodeSnapshot(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(decoded->taken_at, snapshot.taken_at);
  ASSERT_EQ(decoded->counters.size(), snapshot.counters.size());
  EXPECT_EQ(decoded->CounterValue("replay.sent"), 12345u);
  ASSERT_EQ(decoded->gauges.size(), 1u);
  EXPECT_EQ(decoded->gauges[0].second, -3);
  ASSERT_EQ(decoded->histograms.size(), 1u);
  const auto& h = decoded->histograms[0].second;
  const auto& original = snapshot.histograms[0].second;
  EXPECT_EQ(h.count, original.count);
  EXPECT_EQ(h.sum, original.sum);
  EXPECT_EQ(h.max, original.max);
  EXPECT_EQ(h.buckets, original.buckets);
}

TEST(ProtocolTest, RejectsOversizeAndEmptyFrameLengths) {
  // Length over kMaxFramePayload poisons the stream.
  ByteWriter writer;
  writer.WriteU32(kMaxFramePayload + 1);
  writer.WriteU8(static_cast<uint8_t>(FrameType::kChunk));
  FrameAssembler assembler;
  Bytes wire = std::move(writer).Take();
  EXPECT_FALSE(assembler.Feed(wire).ok());

  // Zero-length payload (no type byte) is equally invalid.
  ByteWriter zero;
  zero.WriteU32(0);
  FrameAssembler assembler2;
  Bytes wire2 = std::move(zero).Take();
  EXPECT_FALSE(assembler2.Feed(wire2).ok());
}

TEST(ProtocolTest, RejectsMalformedBodies) {
  // Wrong magic.
  HelloFrame hello;
  Bytes wire = EncodeHello(hello);
  auto frames = Reassemble(wire, wire.size());
  ASSERT_EQ(frames.size(), 1u);
  Frame bad_magic = frames[0];
  bad_magic.body[0] ^= 0xff;
  EXPECT_FALSE(DecodeHello(bad_magic).ok());

  // Truncated body.
  Frame truncated = frames[0];
  truncated.body.resize(truncated.body.size() / 2);
  EXPECT_FALSE(DecodeHello(truncated).ok());

  // Trailing garbage.
  Frame trailing = frames[0];
  trailing.body.push_back(0xab);
  EXPECT_FALSE(DecodeHello(trailing).ok());

  // Type confusion: a HELLO frame is not a CHUNK.
  EXPECT_FALSE(DecodeChunk(frames[0]).ok());

  // Absurd record count in a CHUNK.
  ByteWriter body;
  body.WriteU32(0);                     // seq
  body.WriteU32(kMaxChunkRecords + 1);  // claimed records
  Frame chunk{FrameType::kChunk, std::move(body).Take()};
  auto decoded = DecodeChunk(chunk);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kParseError);
}

// A REPORT snapshot holding the given transport counters.
stats::MetricsSnapshot Counts(
    std::vector<std::pair<std::string, uint64_t>> counters) {
  stats::MetricsSnapshot snapshot;
  snapshot.counters = std::move(counters);
  return snapshot;
}

TEST(LedgerViewTest, ReadLedgerSumsMergedTransportRows) {
  // Each agent counts into its own registry; the controller reads their
  // merged snapshots through the transport ledger. Give every row a
  // distinct value per agent and leave one row out of the second.
  stats::MetricsRegistry agent0;
  stats::MetricsRegistry agent1;
  uint64_t value = 1;
  for (const auto& row : replay::kTransportLedger) {
    agent0.AddCounter(row.name)->Add(value);
    if (std::string(row.name) != "replay.tls_aborts") {
      agent1.AddCounter(row.name)->Add(100 * value);
    }
    ++value;
  }
  const std::vector<stats::MetricsSnapshot> parts = {agent0.Snapshot(),
                                                     agent1.Snapshot()};
  const replay::RealtimeReport merged =
      stats::ReadLedger<replay::kTransportLedger>(
          stats::MergeSnapshots(parts));
  const replay::RealtimeReport second =
      stats::ReadLedger<replay::kTransportLedger>(parts[1]);
  value = 1;
  for (const auto& row : replay::kTransportLedger) {
    const bool in_second = std::string(row.name) != "replay.tls_aborts";
    EXPECT_EQ(merged.*row.field, in_second ? 101 * value : value) << row.name;
    EXPECT_EQ(second.*row.field, in_second ? 100 * value : 0) << row.name;
    ++value;
  }
  // A snapshot without the rows reads all zeros.
  const replay::RealtimeReport none =
      stats::ReadLedger<replay::kTransportLedger>(stats::MetricsSnapshot{});
  for (const auto& row : replay::kTransportLedger) {
    EXPECT_EQ(none.*row.field, 0u) << row.name;
  }
}

// --- scripted agent: backpressure and failure injection ---

// A minimal blocking-socket agent speaking just enough protocol to probe
// the controller: handshakes, then runs `script` over the connected fd.
class ScriptedAgent {
 public:
  ScriptedAgent() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_GE(fd_, 0);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    endpoint_ = Endpoint{IpAddress::Loopback(), ntohs(addr.sin_port)};
  }
  ~ScriptedAgent() {
    Join();
    if (fd_ >= 0) ::close(fd_);
  }

  Endpoint endpoint() const { return endpoint_; }

  // The session helper handed to the script.
  struct Session {
    int fd = -1;
    FrameAssembler assembler;

    // Blocks for the next frame; empty optional on EOF/error.
    std::optional<Frame> Read() {
      for (;;) {
        if (auto frame = assembler.Next()) return frame;
        uint8_t buffer[4096];
        ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) return std::nullopt;
        if (!assembler.Feed(std::span(buffer, static_cast<size_t>(n))).ok()) {
          return std::nullopt;
        }
      }
    }
    // Non-blocking-ish read: returns the next frame if one arrives within
    // `timeout_ms`, nullopt if the stream stays quiet (or a frame is still
    // partial — callers only probe with this, they don't rely on it).
    std::optional<Frame> TryRead(int timeout_ms) {
      if (auto frame = assembler.Next()) return frame;
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return std::nullopt;
      uint8_t buffer[4096];
      ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) return std::nullopt;
      if (!assembler.Feed(std::span(buffer, static_cast<size_t>(n))).ok()) {
        return std::nullopt;
      }
      return assembler.Next();
    }
    void Write(const Bytes& frame) {
      size_t off = 0;
      while (off < frame.size()) {
        ssize_t n = ::send(fd, frame.data() + off, frame.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0) return;
        off += static_cast<size_t>(n);
      }
    }
    // HELLO → HELLO_ACK, CLOCK_PINGs → zero-offset PONGs, until START.
    bool Handshake() {
      for (;;) {
        auto frame = Read();
        if (!frame) return false;
        if (frame->type == FrameType::kHello) {
          auto hello = DecodeHello(*frame);
          if (!hello.ok()) return false;
          Write(EncodeHelloAck(
              HelloAckFrame{.version = kVersion, .agent_id = hello->agent_id}));
        } else if (frame->type == FrameType::kClockPing) {
          auto ping = DecodeClockPing(*frame);
          if (!ping.ok()) return false;
          Write(EncodeClockPong(ClockPongFrame{.t1 = ping->t1,
                                               .t2 = ping->t1}));
        } else if (frame->type == FrameType::kStart) {
          return true;
        } else {
          return false;
        }
      }
    }
  };

  void Run(std::function<void(Session&)> script) {
    thread_ = std::thread([this, script = std::move(script)] {
      Session session;
      session.fd = ::accept(fd_, nullptr, nullptr);
      if (session.fd < 0) return;
      script(session);
      ::close(session.fd);
    });
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  int fd_ = -1;
  Endpoint endpoint_;
  std::thread thread_;
};

TEST(ControllerTest, CreditWindowStallsChunksNotMemory) {
  ScriptedAgent agent;
  constexpr uint32_t kWindow = 2;
  constexpr uint32_t kChunk = 16;
  const auto records = SampleRecords(160);  // 10 chunks

  std::atomic<uint64_t> records_seen{0};
  agent.Run([&](ScriptedAgent::Session& session) {
    ASSERT_TRUE(session.Handshake());
    std::vector<uint32_t> held;  // received but deliberately un-acked
    uint64_t seen = 0;
    bool done = false;
    bool probed = false;
    while (!done) {
      while (held.size() < kWindow && !done) {
        auto frame = session.Read();
        ASSERT_TRUE(frame.has_value());
        if (frame->type == FrameType::kChunk) {
          auto chunk = DecodeChunk(*frame);
          ASSERT_TRUE(chunk.ok());
          seen += chunk->records.size();
          held.push_back(chunk->seq);
        } else if (frame->type == FrameType::kInputDone) {
          done = true;
        } else {
          FAIL() << "unexpected frame type "
                 << static_cast<int>(frame->type);
        }
      }
      // First time the window fills (8 chunks still to come), the stream
      // must go quiet: a controller that overran its credit would deliver
      // another CHUNK here.
      if (!probed && !done && held.size() == kWindow) {
        probed = true;
        auto extra = session.TryRead(250);
        if (extra.has_value()) {
          EXPECT_NE(extra->type, FrameType::kChunk)
              << "controller overran the credit window";
        }
      }
      // Ack the oldest held chunk, releasing exactly one credit.
      if (!held.empty()) {
        session.Write(EncodeChunkAck(ChunkAckFrame{.seq = held.front()}));
        held.erase(held.begin());
      }
    }
    for (uint32_t seq : held) {
      session.Write(EncodeChunkAck(ChunkAckFrame{.seq = seq}));
    }
    records_seen.store(seen);
    // Minimal coherent report: everything "sent and answered".
    session.Write(EncodeReport(
        Counts({{"replay.answered", seen}, {"replay.sent", seen}})));
    // Wait for BYE.
    while (auto frame = session.Read()) {
      if (frame->type == FrameType::kBye) break;
    }
  });

  ControllerOptions options;
  options.agents = {agent.endpoint()};
  options.chunk_records = kChunk;
  options.credit_window = kWindow;
  options.config.fast_mode = true;
  auto report = RunDistributedReplay(records, options);
  agent.Join();
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_FALSE(report->failed) << report->error;
  EXPECT_EQ(records_seen.load(), records.size());
  EXPECT_TRUE(report->ReconcileDiffs().empty());
}

TEST(ControllerTest, MidRunDisconnectIsTerminalWithPartialStats) {
  ScriptedAgent agent;
  const auto records = SampleRecords(160);

  agent.Run([&](ScriptedAgent::Session& session) {
    ASSERT_TRUE(session.Handshake());
    // Accept and ack exactly one chunk, then die.
    auto frame = session.Read();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::kChunk);
    auto chunk = DecodeChunk(*frame);
    ASSERT_TRUE(chunk.ok());
    session.Write(EncodeChunkAck(ChunkAckFrame{.seq = chunk->seq}));
  });

  ControllerOptions options;
  options.agents = {agent.endpoint()};
  options.chunk_records = 16;
  options.credit_window = 2;
  options.config.fast_mode = true;
  auto report = RunDistributedReplay(records, options);
  agent.Join();
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_TRUE(report->failed);
  EXPECT_NE(report->error.find("agent 0"), std::string::npos)
      << report->error;
  ASSERT_EQ(report->agents.size(), 1u);
  // Partial accounting survives: some records were shipped, none lost
  // silently — the run is marked failed instead.
  EXPECT_GT(report->agents[0].records_sent, 0u);
  EXPECT_FALSE(report->agents[0].completed);
  EXPECT_FALSE(report->agents[0].error.empty());
}

// A loopback port with nothing listening: bound, never listen()ed, so a
// dial there is refused at once.
class DeadPort {
 public:
  DeadPort() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    endpoint_ = Endpoint{IpAddress::Loopback(), ntohs(addr.sin_port)};
  }
  ~DeadPort() { ::close(fd_); }
  Endpoint endpoint() const { return endpoint_; }

 private:
  int fd_ = -1;
  Endpoint endpoint_;
};

// Acks every chunk; at INPUT_DONE reports `report(records seen)`.
void AckAllThenReport(
    ScriptedAgent::Session& session,
    const std::function<stats::MetricsSnapshot(uint64_t)>& report) {
  ASSERT_TRUE(session.Handshake());
  uint64_t seen = 0;
  while (auto frame = session.Read()) {
    if (frame->type == FrameType::kChunk) {
      auto chunk = DecodeChunk(*frame);
      ASSERT_TRUE(chunk.ok());
      seen += chunk->records.size();
      session.Write(EncodeChunkAck(ChunkAckFrame{.seq = chunk->seq}));
    } else if (frame->type == FrameType::kInputDone) {
      session.Write(EncodeReport(report(seen)));
    } else if (frame->type == FrameType::kBye) {
      break;
    }
  }
}

TEST(ControllerTest, ConnectTimeFailureDropsAgentAndContinues) {
  ScriptedAgent live;
  DeadPort dead;
  const auto records = SampleRecords(32);
  live.Run([&](ScriptedAgent::Session& session) {
    AckAllThenReport(session, [](uint64_t seen) {
      return Counts({{"replay.answered", seen}, {"replay.sent", seen}});
    });
  });

  ControllerOptions options;
  options.agents = {dead.endpoint(), live.endpoint()};
  options.chunk_records = 8;
  options.config.fast_mode = true;
  auto report = RunDistributedReplay(records, options);
  live.Join();
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_FALSE(report->failed) << report->error;
  ASSERT_EQ(report->agents.size(), 2u);
  EXPECT_FALSE(report->agents[0].connected);
  EXPECT_EQ(report->agents[0].records_sent, 0u);
  // The survivor absorbed the whole trace.
  EXPECT_TRUE(report->agents[1].completed);
  EXPECT_EQ(report->agents[1].records_sent, records.size());
  EXPECT_TRUE(report->ReconcileDiffs().empty());
}

TEST(ControllerTest, ReportThatDoesNotAccountFailsReconcile) {
  // The counts come only from the REPORT snapshot, so one that omits
  // replay.sent, or whose outcomes do not sum to it, must show as a diff.
  const std::vector<std::function<stats::MetricsSnapshot(uint64_t)>> reports =
      {[](uint64_t seen) { return Counts({{"replay.answered", seen}}); },
       [](uint64_t seen) {
         return Counts({{"replay.answered", seen - 1}, {"replay.sent", seen}});
       }};
  for (size_t i = 0; i < reports.size(); ++i) {
    ScriptedAgent agent;
    agent.Run([&](ScriptedAgent::Session& session) {
      AckAllThenReport(session, reports[i]);
    });
    ControllerOptions options;
    options.agents = {agent.endpoint()};
    options.config.fast_mode = true;
    auto report = RunDistributedReplay(SampleRecords(32), options);
    agent.Join();
    ASSERT_TRUE(report.ok()) << report.error().ToString();
    EXPECT_FALSE(report->failed) << report->error;
    EXPECT_TRUE(report->agents[0].completed);
    EXPECT_FALSE(report->ReconcileDiffs().empty()) << "report " << i;
  }
}

TEST(ControllerTest, RefusesConfigHelloCannotCarryBeforeDialing) {
  // The agent would start that many distributor threads, so the check
  // must come before any dial. The only endpoint refuses connections: a
  // controller that dialed anyway fails to connect, never to validate.
  DeadPort dead;
  for (const auto& config : ConfigsHelloCannotCarry()) {
    ControllerOptions options;
    options.agents = {dead.endpoint()};
    options.config = config;
    auto report = RunDistributedReplay(SampleRecords(8), options);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error().code(), ErrorCode::kInvalidArgument)
        << report.error().ToString();
  }
}

// --- end to end: real agents, real replay engine, real DNS server ---

std::shared_ptr<server::AuthServerEngine> MakeEngine() {
  auto zone = zone::ParseMasterFile(
      "$ORIGIN example.com.\n"
      "@ 3600 IN SOA ns1 admin 1 2 3 4 300\n"
      "@ IN NS ns1\n"
      "ns1 IN A 192.0.2.53\n"
      "* IN A 192.0.2.200\n",
      zone::MasterFileOptions{});
  EXPECT_TRUE(zone.ok());
  zone::ZoneSet set;
  EXPECT_TRUE(
      set.AddZone(std::make_shared<zone::Zone>(std::move(*zone))).ok());
  zone::ViewTable views;
  views.SetDefaultView(std::move(set));
  return std::make_shared<server::AuthServerEngine>(std::move(views));
}

// One in-process agent: its own loop on its own thread, exactly like a
// separate ldp_replay_agent process would run.
struct TestAgent {
  std::unique_ptr<net::EventLoop> loop;
  std::unique_ptr<AgentServer> server;
  std::thread thread;

  static std::unique_ptr<TestAgent> Start() {
    auto agent = std::make_unique<TestAgent>();
    auto loop = net::EventLoop::Create();
    EXPECT_TRUE(loop.ok());
    agent->loop = std::move(*loop);
    auto server = AgentServer::Start(*agent->loop, AgentOptions{});
    EXPECT_TRUE(server.ok()) << server.error().ToString();
    agent->server = std::move(*server);
    agent->thread = std::thread([raw = agent.get()] { raw->loop->Run(); });
    return agent;
  }

  ~TestAgent() {
    if (thread.joinable()) {
      loop->RequestStop();
      thread.join();
    }
  }
};

TEST(DistributedReplayTest, LoopbackTwoAgentsZeroLoss) {
  auto server_loop = net::EventLoop::Create();
  ASSERT_TRUE(server_loop.ok());
  server::SocketDnsServer::Config server_config;
  server_config.listen = Endpoint{IpAddress::Loopback(), 0};
  auto dns = server::SocketDnsServer::Start(**server_loop, MakeEngine(),
                                            server_config);
  ASSERT_TRUE(dns.ok()) << dns.error().ToString();
  std::thread server_thread([&] { (*server_loop)->Run(); });

  auto agent0 = TestAgent::Start();
  auto agent1 = TestAgent::Start();

  auto records = SampleRecords(300);
  for (auto& record : records) {
    record.dst = (*dns)->endpoint().addr;
    record.dst_port = (*dns)->endpoint().port;
  }

  ControllerOptions options;
  options.agents = {agent0->server->local(), agent1->server->local()};
  options.config.server = (*dns)->endpoint();
  options.config.n_distributors = 1;
  options.config.queriers_per_distributor = 2;
  options.config.lookahead = Millis(100);
  options.chunk_records = 32;
  options.stats_interval = Millis(100);
  options.metrics_path = ::testing::TempDir() + "/ldp_distrib_merged.jsonl";

  auto report = RunDistributedReplay(records, options);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_FALSE(report->failed) << report->error;

  // Agents shut their loops down after BYE; join before inspecting.
  agent0->thread.join();
  agent1->thread.join();
  EXPECT_TRUE(agent0->server->result().ok())
      << agent0->server->result().error().ToString();
  EXPECT_TRUE(agent1->server->result().ok())
      << agent1->server->result().error().ToString();

  // Zero loss over loopback, fully reconciled across processes.
  const replay::RealtimeReport merged = report->merged();
  EXPECT_EQ(merged.queries_sent, records.size());
  EXPECT_EQ(merged.answered, records.size());
  EXPECT_EQ(merged.timed_out + merged.send_failed, 0u);
  auto diffs = report->ReconcileDiffs();
  EXPECT_TRUE(diffs.empty()) << diffs.front();
  // Both agents did real work (20 clients spread across the ring), and
  // every client stuck to one agent: shipped totals partition the trace.
  EXPECT_GT(report->agents[0].records_sent, 0u);
  EXPECT_GT(report->agents[1].records_sent, 0u);
  EXPECT_EQ(report->agents[0].records_sent + report->agents[1].records_sent,
            records.size());
  // Each agent's final snapshot accounts for what it was shipped.
  for (const auto& agent : report->agents) {
    EXPECT_TRUE(agent.completed);
    const replay::RealtimeReport c = agent.counts();
    EXPECT_EQ(c.queries_sent, agent.records_sent);
    EXPECT_EQ(c.queries_sent, c.answered + c.timed_out + c.send_failed);
  }
  // The merged JSONL's final row reads what the merged view reads.
  auto rows = stats::ReadJsonlFile(options.metrics_path);
  ASSERT_TRUE(rows.ok()) << rows.error().ToString();
  ASSERT_FALSE(rows->empty());
  for (const auto& row : replay::kTransportLedger) {
    uint64_t in_row = 0;
    for (const auto& [name, cell] : rows->back().counters) {
      if (name == row.name) in_row = cell.total;
    }
    EXPECT_EQ(in_row, merged.*row.field) << row.name;
  }

  (*server_loop)->RequestStop();
  server_thread.join();
}

TEST(DistributedReplayTest, AgentBindsQueriersOnTheHelloLocalAddr) {
  // An echo responder on 127.0.0.1 notes each query's source: the agent
  // must send from the configured 127/8 address, not the default one.
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const Endpoint responder{IpAddress::Loopback(), ntohs(addr.sin_port)};
  const IpAddress local(127, 0, 0, 5);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> from_local{0};
  std::atomic<uint64_t> from_elsewhere{0};
  std::thread echo([&] {
    uint8_t buffer[1500];
    while (!stop.load()) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 20) <= 0) continue;
      sockaddr_in from{};
      socklen_t from_len = sizeof(from);
      ssize_t n = ::recvfrom(fd, buffer, sizeof(buffer), 0,
                             reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n <= 0) continue;
      auto& seen = IpAddress(ntohl(from.sin_addr.s_addr)) == local
                       ? from_local
                       : from_elsewhere;
      ++seen;
      // The query itself answers it: same ID, same question.
      ::sendto(fd, buffer, static_cast<size_t>(n), 0,
               reinterpret_cast<sockaddr*>(&from), from_len);
    }
  });

  auto agent = TestAgent::Start();
  auto records = SampleRecords(20);
  for (auto& record : records) {
    record.dst = responder.addr;
    record.dst_port = responder.port;
  }
  ControllerOptions options;
  options.agents = {agent->server->local()};
  options.config.server = responder;
  options.config.local_addr = local;
  options.config.fast_mode = true;
  options.config.queriers_per_distributor = 1;
  auto report = RunDistributedReplay(records, options);
  agent->thread.join();
  stop.store(true);
  echo.join();
  ::close(fd);

  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_FALSE(report->failed) << report->error;
  EXPECT_TRUE(report->ReconcileDiffs().empty());
  EXPECT_EQ(report->merged().answered, records.size());
  EXPECT_EQ(from_local.load(), records.size());
  EXPECT_EQ(from_elsewhere.load(), 0u);
}

// Regression (fuzz_distrib target): a CHUNK body claiming 2^20 records in
// 8 bytes reserved the full count before reading a single record — a
// remote-triggered allocation amplifier. The decode must fail cheaply.
TEST(ProtocolTest, ChunkCountLargerThanBodyFailsWithoutReserving) {
  Frame frame;
  frame.type = FrameType::kChunk;
  frame.body = {0x00, 0x00, 0x00, 0x00,   // seq
                0x00, 0x10, 0x00, 0x00};  // count = 1'048'576, no records
  auto chunk = DecodeChunk(frame);
  ASSERT_FALSE(chunk.ok());
}

TEST(ProtocolTest, FrameAssemblerPoisonedAfterBadLength) {
  FrameAssembler assembler;
  Bytes bad = {0x00, 0x00, 0x00, 0x00, 0x07};  // zero-length frame
  ASSERT_FALSE(assembler.Feed(bad).ok());
  // Sticky: even a well-formed BYE frame is rejected afterwards.
  EXPECT_FALSE(assembler.Feed(EncodeBye()).ok());
  EXPECT_FALSE(assembler.Next().has_value());
}

}  // namespace
}  // namespace ldp::distrib
