// End-to-end real-socket replay: controller → distributors → queriers over
// loopback against a real SocketDnsServer, exercising the §4 fidelity path
// with actual kernel timers and sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>

#include "dns/framing.h"
#include "ledger_check.h"
#include "mutate/mutate.h"
#include "net/sockets.h"
#include "replay/realtime.h"
#include "server/socket_server.h"
#include "workload/traces.h"
#include "zone/masterfile.h"

namespace ldp::replay {
namespace {

// TSan slows execution 5-15x, which breaks wall-clock fidelity bounds
// (they measure the scheduler, not thread safety). Races are still caught
// because the tests run end to end; only the timing assertions are gated.
#if defined(__SANITIZE_THREAD__)
constexpr bool kUnderTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kUnderTsan = true;
#else
constexpr bool kUnderTsan = false;
#endif
#else
constexpr bool kUnderTsan = false;
#endif

// Wildcard zone so every replayed query gets an answer.
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

std::vector<trace::QueryRecord> MakeTraceTo(Endpoint server, size_t n,
                                            NanoDuration gap,
                                            size_t n_clients = 20) {
  workload::FixedIntervalConfig config;
  config.interarrival = gap;
  config.duration = gap * static_cast<int64_t>(n);
  config.n_clients = n_clients;
  auto records = workload::MakeFixedIntervalTrace(config);
  for (auto& r : records) {
    r.dst = server.addr;
    r.dst_port = server.port;
  }
  return records;
}

void ForceTcp(std::vector<trace::QueryRecord>& records) {
  mutate::MutationPipeline pipeline;
  pipeline.Add(mutate::ForceProtocol(trace::Protocol::kTcp));
  pipeline.Apply(records);
}

// The ledger invariant: every replayed query reaches a terminal outcome
// and the counters tie out exactly, both in aggregate and against the
// per-record states.
void ExpectTerminalAccounting(const RealtimeReport& report) {
  EXPECT_EQ(report.queries_sent,
            report.answered + report.timed_out + report.send_failed);
  uint64_t answered = 0, timed_out = 0, send_failed = 0, pending = 0;
  for (const auto& send : report.sends) {
    switch (send.state) {
      case SendOutcome::State::kAnswered: ++answered; break;
      case SendOutcome::State::kTimedOut: ++timed_out; break;
      case SendOutcome::State::kSendFailed: ++send_failed; break;
      case SendOutcome::State::kPending: ++pending; break;
    }
  }
  EXPECT_EQ(pending, 0u) << "records left without a terminal outcome";
  EXPECT_EQ(answered, report.answered);
  EXPECT_EQ(timed_out, report.timed_out);
  EXPECT_EQ(send_failed, report.send_failed);
}

// A local endpoint that swallows datagrams: a bound UDP socket nobody
// reads. Loopback sends succeed (full receive queues drop silently), so
// every query reaches the wire and must age out via the timer wheel.
class BlackholeUdp {
 public:
  BlackholeUdp() {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ >= 0 &&
        ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      socklen_t len = sizeof(addr);
      if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
        endpoint_ = Endpoint{IpAddress::Loopback(), ntohs(addr.sin_port)};
      }
    }
  }
  ~BlackholeUdp() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return endpoint_.port != 0; }
  Endpoint endpoint() const { return endpoint_; }

 private:
  int fd_ = -1;
  Endpoint endpoint_{};
};

// A UDP responder on its own thread. Each reply echoes the query with QR
// set, `delay` after it arrived; with wrong_question the qtype is bumped by
// one, as a stray or spoofed reply would be; with wrong_source the reply
// leaves from a second socket, another port than the one queried. For
// every reply it records the monotonic time just before and just after its
// sendto, by query name.
struct UdpResponderOptions {
  NanoDuration delay = 0;
  bool wrong_question = false;
  bool wrong_source = false;
};

class UdpResponder {
 public:
  using Options = UdpResponderOptions;
  struct Stamp {
    NanoTime before = 0;
    NanoTime after = 0;
  };

  explicit UdpResponder(Options options = {}) : options_(options) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 ||
        ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return;
    }
    endpoint_ = Endpoint{IpAddress::Loopback(), ntohs(addr.sin_port)};
    reply_fd_ = fd_;
    if (options_.wrong_source) {
      reply_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
      addr.sin_port = 0;
      if (reply_fd_ < 0 || ::bind(reply_fd_, reinterpret_cast<sockaddr*>(&addr),
                                  sizeof(addr)) != 0) {
        endpoint_ = Endpoint{};
        return;
      }
    }
    thread_ = std::thread([this]() { Serve(); });
  }
  ~UdpResponder() {
    Stop();
    if (reply_fd_ >= 0 && reply_fd_ != fd_) ::close(reply_fd_);
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return endpoint_.port != 0; }
  Endpoint endpoint() const { return endpoint_; }
  uint64_t replies() const { return replies_; }
  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  // Read only after Stop().
  const std::unordered_map<std::string, Stamp>& stamps() const {
    return stamps_;
  }

 private:
  struct Held {
    NanoTime due;
    std::string name;
    Bytes wire;
    sockaddr_in to;
  };

  void Serve() {
    std::deque<Held> held;
    uint8_t buf[1500];
    while (!stop_) {
      while (!held.empty() && held.front().due <= MonotonicNow()) {
        Reply(held.front());
        held.pop_front();
      }
      int wait_ms = 20;
      if (!held.empty()) {
        wait_ms = static_cast<int>(std::clamp<NanoDuration>(
            (held.front().due - MonotonicNow()) / kNanosPerMilli, 0, 20));
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, wait_ms) <= 0) continue;
      for (;;) {
        sockaddr_in from{};
        socklen_t from_len = sizeof(from);
        ssize_t n = ::recvfrom(fd_, buf, sizeof(buf), 0,
                               reinterpret_cast<sockaddr*>(&from), &from_len);
        if (n <= 0) break;
        auto query = dns::Message::Decode(
            std::span<const uint8_t>(buf, static_cast<size_t>(n)));
        if (!query.ok() || query->questions.empty()) continue;
        dns::Message reply = *query;
        reply.qr = true;
        if (options_.wrong_question) {
          reply.questions.front().type = static_cast<dns::RRType>(
              static_cast<uint16_t>(reply.questions.front().type) + 1);
        }
        held.push_back(Held{MonotonicNow() + options_.delay,
                            query->questions.front().name.ToString(),
                            reply.Encode(), from});
        if (options_.delay == 0) {
          Reply(held.back());
          held.pop_back();
        }
      }
    }
  }

  void Reply(const Held& reply) {
    Stamp stamp;
    stamp.before = MonotonicNow();
    ::sendto(reply_fd_, reply.wire.data(), reply.wire.size(), 0,
             reinterpret_cast<const sockaddr*>(&reply.to), sizeof(reply.to));
    stamp.after = MonotonicNow();
    stamps_[reply.name] = stamp;
    ++replies_;
  }

  Options options_;
  int fd_ = -1;
  int reply_fd_ = -1;
  Endpoint endpoint_{};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> replies_{0};
  std::unordered_map<std::string, Stamp> stamps_;
  std::thread thread_;
};

// The TCP twin: an event-loop thread that answers every framed query with
// its own ID but the qtype bumped by one.
class WrongQuestionTcp {
 public:
  WrongQuestionTcp() {
    auto loop = net::EventLoop::Create();
    if (!loop.ok()) return;
    loop_ = std::move(*loop);
    auto listener = net::TcpListener::Listen(
        *loop_, Endpoint{IpAddress::Loopback(), 0},
        [this](std::unique_ptr<net::TcpConnection> conn) { Adopt(std::move(conn)); });
    if (!listener.ok()) return;
    listener_ = std::move(*listener);
    thread_ = std::thread([this]() { loop_->Run(); });
  }
  ~WrongQuestionTcp() {
    if (thread_.joinable()) {
      loop_->RequestStop();
      thread_.join();
    }
  }
  bool ok() const { return listener_ != nullptr; }
  Endpoint endpoint() const { return listener_->local(); }
  uint64_t replies() const { return replies_; }

 private:
  struct Conn {
    std::unique_ptr<net::TcpConnection> conn;
    dns::StreamAssembler assembler;
  };

  void Adopt(std::unique_ptr<net::TcpConnection> accepted) {
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->conn = std::move(accepted);
    auto status = net::TcpListener::AdoptHandlers(
        *conn->conn,
        [this, conn](std::span<const uint8_t> data) {
          if (!conn->assembler.Feed(data).ok()) return;
          while (auto wire = conn->assembler.NextMessage()) {
            auto query = dns::Message::Decode(*wire);
            if (!query.ok() || query->questions.empty()) continue;
            dns::Message reply = *query;
            reply.qr = true;
            reply.questions.front().type = static_cast<dns::RRType>(
                static_cast<uint16_t>(reply.questions.front().type) + 1);
            auto framed = dns::FrameMessage(reply.Encode());
            if (framed.ok() && conn->conn->Send(*framed).ok()) ++replies_;
          }
        },
        [](Status) {});
    EXPECT_TRUE(status.ok());
  }

  std::unique_ptr<net::EventLoop> loop_;
  std::unique_ptr<net::TcpListener> listener_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<uint64_t> replies_{0};
  std::thread thread_;
};

// A TCP port that refuses connections: bind without listen, so connect
// gets an immediate RST.
class DeadTcpPort {
 public:
  DeadTcpPort() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ >= 0 &&
        ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      socklen_t len = sizeof(addr);
      if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
        endpoint_ = Endpoint{IpAddress::Loopback(), ntohs(addr.sin_port)};
      }
    }
  }
  ~DeadTcpPort() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return endpoint_.port != 0; }
  Endpoint endpoint() const { return endpoint_; }

 private:
  int fd_ = -1;
  Endpoint endpoint_{};
};

class RealtimeReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto loop = net::EventLoop::Create();
    ASSERT_TRUE(loop.ok());
    loop_ = std::move(*loop);

    server::SocketDnsServer::Config config;
    config.listen = Endpoint{IpAddress::Loopback(), 0};
    config.tcp_idle_timeout = Seconds(20);
    auto server = server::SocketDnsServer::Start(*loop_, MakeEngine(), config);
    ASSERT_TRUE(server.ok()) << server.error().ToString();
    server_ = std::move(*server);

    server_thread_ = std::thread([this]() { loop_->Run(); });
  }

  void TearDown() override { StopServerLoop(); }

  // RequestStop is the only cross-thread-safe way to stop a running loop
  // (ScheduleAfter from here would race with the loop thread's timer heap).
  // Tests that inspect server state call this first so the read cannot race
  // with the loop thread.
  void StopServerLoop() {
    if (!server_thread_.joinable()) return;
    loop_->RequestStop();
    server_thread_.join();
  }

  std::vector<trace::QueryRecord> MakeTrace(size_t n, NanoDuration gap,
                                            size_t n_clients = 20) {
    return MakeTraceTo(server_->endpoint(), n, gap, n_clients);
  }

  RealtimeConfig MakeConfig() {
    RealtimeConfig config;
    config.server = server_->endpoint();
    config.n_distributors = 2;
    config.queriers_per_distributor = 2;
    return config;
  }

  std::unique_ptr<net::EventLoop> loop_;
  std::unique_ptr<server::SocketDnsServer> server_;
  std::thread server_thread_;
};

TEST_F(RealtimeReplayTest, UdpReplayGetsAllReplies) {
  auto records = MakeTrace(200, Millis(2));  // 0.4 s of trace
  auto report = RunRealtimeReplay(records, MakeConfig());
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 200u);
  // Loopback UDP against a live server: replies should be complete, but
  // allow a stray loss under heavy CI load.
  EXPECT_GE(report->answered, 198u);
  ExpectTerminalAccounting(*report);
}

TEST_F(RealtimeReplayTest, TimingStaysWithinPaperBounds) {
  auto records = MakeTrace(300, Millis(5));  // 1.5 s of trace
  auto report = RunRealtimeReplay(records, MakeConfig());
  ASSERT_TRUE(report.ok()) << report.error().ToString();

  auto errors = report->TimingErrorsMs(/*skip_first=*/10);
  ASSERT_FALSE(errors.empty());
  if (kUnderTsan) {
    GTEST_SKIP() << "timing fidelity bounds are meaningless under TSan";
  }
  stats::Summary summary;
  summary.AddAll(errors);
  auto dist = summary.Summarize();
  // Paper Fig 6: quartiles within ±8 ms even in the worst case. A single
  // loaded CI core is noisier than DETER hardware; allow 4x headroom.
  EXPECT_GT(dist.p25, -32.0) << dist.ToString();
  EXPECT_LT(dist.p75, 32.0) << dist.ToString();
}

TEST_F(RealtimeReplayTest, FastModeOutpacesTraceTiming) {
  auto records = MakeTrace(2000, Millis(10));  // 20 s of trace time
  RealtimeConfig config = MakeConfig();
  config.fast_mode = true;
  NanoTime start = MonotonicNow();
  auto report = RunRealtimeReplay(records, config);
  NanoDuration elapsed = MonotonicNow() - start;
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->queries_sent, 2000u);
  // 20 s of trace replayed well under real time (generous under TSan).
  EXPECT_LT(elapsed, kUnderTsan ? Seconds(60) : Seconds(10));
}

TEST_F(RealtimeReplayTest, TcpReplayReusesConnections) {
  auto records = MakeTrace(100, Millis(2));
  ForceTcp(records);

  auto report = RunRealtimeReplay(records, MakeConfig());
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 100u);
  EXPECT_GE(report->answered, 98u);
  ExpectTerminalAccounting(*report);
  // 20 sources, sticky assignment: connection count stays near the source
  // count, far below the query count. Quiesce the loop first so the map
  // read does not race with connection teardown.
  StopServerLoop();
  EXPECT_LE(server_->open_tcp_connections(), 25u);
}

TEST_F(RealtimeReplayTest, ReportHelpersProduceSeries) {
  auto records = MakeTrace(100, Millis(5));
  auto report = RunRealtimeReplay(records, MakeConfig());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->ReplayInterarrivalsS().size(), 99u);
  EXPECT_FALSE(report->RateErrors().empty());
}

// Fig 6's error is each query's own lateness, sent − trace_time, on the
// replay's schedule: a first query that left late moves only its own
// error, not every other query's.
TEST(RealtimeReport, TimingErrorsMeasureEachQueryAgainstItsSchedule) {
  RealtimeReport report;
  std::span<SendOutcome> outcomes = report.sends.AppendChunk(5);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    outcomes[i].trace_time = static_cast<NanoTime>(i) * Millis(10);
    outcomes[i].sent = outcomes[i].trace_time;
    outcomes[i].state = SendOutcome::State::kAnswered;
  }
  outcomes[0].sent += Millis(5);  // the first query left 5 ms late
  outcomes[3].state = SendOutcome::State::kSendFailed;  // never sent

  EXPECT_EQ(report.TimingErrorsMs(), (std::vector<double>{5, 0, 0, 0}));
  EXPECT_EQ(report.TimingErrorsMs(/*skip_first=*/1),
            (std::vector<double>{0, 0, 0}));
}

// Counts outside CheckConfig's bounds are refused before any thread
// starts: Start returns the error without touching the network, so none of
// these values ever sizes a thread pool or a vector.
TEST(ReplayPipelineConfig, StartRefusesCountsOutOfRange) {
  std::vector<RealtimeConfig> refused(8);
  refused[0].n_distributors = 0;
  refused[1].n_distributors = 0x10000;
  refused[2].n_distributors = SIZE_MAX;  // what --distributors -1 wrapped to
  refused[3].queriers_per_distributor = 0;
  refused[4].queriers_per_distributor = SIZE_MAX;
  refused[5].max_retransmits = -1;
  refused[6].tcp_max_reconnects = 0x10000;
  refused[7].query_timeout = 0;
  for (const RealtimeConfig& config : refused) {
    EXPECT_EQ(CheckConfig(config).error().code(),
              ErrorCode::kInvalidArgument);
    auto pipeline = ReplayPipeline::Start(config, MonotonicNow(), 0);
    ASSERT_FALSE(pipeline.ok());
    EXPECT_EQ(pipeline.error().code(), ErrorCode::kInvalidArgument);
  }
  RealtimeConfig edge;
  edge.n_distributors = 0xffff;
  edge.queriers_per_distributor = 0xffff;
  edge.max_retransmits = 0xffff;
  edge.tcp_max_reconnects = 0;
  EXPECT_TRUE(CheckConfig(edge).ok());
}

TEST(QueryIdAllocation, ProbesPastInflightAcrossTheWrap) {
  std::unordered_map<uint16_t, int> inflight;
  inflight[65535] = 1;
  inflight[0] = 1;
  uint16_t next = 65535;
  bool collided = false;
  auto id = AllocateQueryId(next, inflight, &collided);
  ASSERT_TRUE(id.has_value());
  // 65535 and 0 are inflight: the probe wraps past both instead of
  // clobbering them (the seed bug reused the raw counter unconditionally).
  EXPECT_EQ(*id, 1);
  EXPECT_TRUE(collided);
  EXPECT_EQ(next, 2);

  collided = false;
  id = AllocateQueryId(next, inflight, &collided);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 2);
  EXPECT_FALSE(collided);
  EXPECT_EQ(next, 3);
}

TEST(QueryIdAllocation, ExhaustedIdSpaceReturnsNullopt) {
  std::unordered_map<uint16_t, int> inflight;
  for (uint32_t id = 0; id < 0x10000; ++id) {
    inflight[static_cast<uint16_t>(id)] = 1;
  }
  uint16_t next = 123;
  bool collided = false;
  EXPECT_FALSE(AllocateQueryId(next, inflight, &collided).has_value());
}

// The querier's UDP ID table (replay/inflight.h), driven directly: its ID
// space rules hold independent of how fast the host can send.
struct TableEntry {
  Bytes wire;
};

TEST(InflightTable, FullIdSpaceFailsAllocation) {
  InflightTable<TableEntry> table;
  for (uint32_t id = 0; id < 0x10000; ++id) {
    table.Insert(static_cast<uint16_t>(id));
  }
  EXPECT_EQ(table.size(), 0x10000u);
  uint16_t next = 123;
  bool collided = false;
  EXPECT_FALSE(AllocateQueryId(next, table, &collided).has_value());
  EXPECT_EQ(next, 123);
}

TEST(InflightTable, ProbingPastLiveIdsIsOneCollision) {
  InflightTable<TableEntry> table;
  table.Insert(10);
  table.Insert(11);
  uint16_t next = 10;
  bool collided = false;
  auto id = AllocateQueryId(next, table, &collided);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 12);
  EXPECT_TRUE(collided);  // one flag for the allocation, not one per probe
  EXPECT_EQ(next, 13);
  table.Insert(*id);

  id = AllocateQueryId(next, table, &collided);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 13);
  EXPECT_FALSE(collided);
}

TEST(InflightTable, FreedIdIsTheNextHandedOutAfterTheWrap) {
  InflightTable<TableEntry> table;
  for (uint32_t id = 0; id < 0x10000; ++id) {
    table.Insert(static_cast<uint16_t>(id));
  }
  table.Erase(777);
  EXPECT_FALSE(table.contains(777));
  EXPECT_EQ(table.find(777), nullptr);
  uint16_t next = 60000;
  bool collided = false;
  auto id = AllocateQueryId(next, table, &collided);
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 777);
  EXPECT_TRUE(collided);
  EXPECT_EQ(next, 778);
}

TEST(InflightTable, FreedSlotIsReusedWithItsBuffer) {
  InflightTable<TableEntry> table;
  TableEntry& first = table.Insert(5);
  first.wire.assign(100, 0xab);
  const uint8_t* storage = first.wire.data();
  table.Erase(5);
  EXPECT_TRUE(table.empty());

  TableEntry& second = table.Insert(9);
  EXPECT_EQ(table.find(9), &second);
  EXPECT_EQ(table.find(5), nullptr);
  second.wire.clear();  // the caller resets; the capacity stays
  second.wire.assign(60, 0xcd);
  EXPECT_EQ(second.wire.data(), storage);
  EXPECT_EQ(table.size(), 1u);
}

TEST(Ring, KeepsFifoOrderAcrossGrowthWrapAndInsert) {
  Ring<int> ring;
  int pushed = 0;
  int popped = 0;
  // Interleave so the head walks around the ring while it grows.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) ring.push_back(pushed++);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(ring.pop_front(), popped++);
  }
  EXPECT_EQ(ring.size(), static_cast<size_t>(pushed - popped));
  // insert() places a value at a position, shifting the tail back.
  ring.insert(ring.size() - 1, -1);
  ring.insert(0, -2);
  EXPECT_EQ(ring.pop_front(), -2);
  while (ring.size() > 2) EXPECT_EQ(ring.pop_front(), popped++);
  EXPECT_EQ(ring.pop_front(), -1);
  EXPECT_EQ(ring.pop_front(), popped++);
  EXPECT_TRUE(ring.empty());
}

TEST(RealtimeTransport, UdpTimeoutAndRetransmitAccounting) {
  BlackholeUdp blackhole;
  ASSERT_TRUE(blackhole.ok());
  auto records = MakeTraceTo(blackhole.endpoint(), 100, Millis(1));

  RealtimeConfig config;
  config.server = blackhole.endpoint();
  config.n_distributors = 1;
  config.queriers_per_distributor = 2;
  config.fast_mode = true;
  config.query_timeout = Millis(150);
  config.max_retransmits = 1;

  auto report = RunRealtimeReplay(records, config);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 100u);
  EXPECT_EQ(report->answered, 0u);
  EXPECT_EQ(report->timed_out, 100u);
  EXPECT_EQ(report->send_failed, 0u);
  // Every query was re-sent exactly once before aging out.
  EXPECT_EQ(report->retransmits, 100u);
  for (const auto& send : report->sends) {
    EXPECT_EQ(send.retransmits, 1u);
    EXPECT_NE(send.sent, 0);
  }
  ExpectTerminalAccounting(*report);
}

// Each distributor counts into its own cells under the shared replay.*
// names: the report sums them, and so does the registry.
TEST(RealtimeTransport, ReportEqualsTheRegistryAcrossDistributors) {
  BlackholeUdp blackhole;
  ASSERT_TRUE(blackhole.ok());
  auto records = MakeTraceTo(blackhole.endpoint(), 64, Millis(1));

  stats::MetricsRegistry metrics;
  RealtimeConfig config;
  config.server = blackhole.endpoint();
  config.n_distributors = 2;
  config.queriers_per_distributor = 1;
  config.fast_mode = true;
  config.query_timeout = Millis(100);
  config.max_retransmits = 1;
  config.metrics = &metrics;

  auto report = RunRealtimeReplay(records, config);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->timed_out, 64u);
  EXPECT_EQ(report->retransmits, 64u);
  ledger_check::ExpectViewMatchesSnapshot<kTransportLedger>(
      *report, metrics.Snapshot());
  ExpectTerminalAccounting(*report);
}

// A reply with the right ID but another question does not answer the
// query: it is counted as unmatched and the query still times out.
TEST(RealtimeTransport, WrongQuestionReplyLeavesQueryTimedOut) {
  UdpResponder responder({.wrong_question = true});
  ASSERT_TRUE(responder.ok());
  auto records = MakeTraceTo(responder.endpoint(), 50, Millis(1));

  RealtimeConfig config;
  config.server = responder.endpoint();
  config.n_distributors = 1;
  config.queriers_per_distributor = 1;
  config.fast_mode = true;
  config.query_timeout = Millis(150);
  config.max_retransmits = 0;

  auto report = RunRealtimeReplay(records, config);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 50u);
  EXPECT_EQ(report->answered, 0u);
  EXPECT_EQ(report->timed_out, 50u);
  EXPECT_EQ(report->unmatched_replies, responder.replies());
  EXPECT_GT(report->unmatched_replies, 0u);
  ExpectTerminalAccounting(*report);
}

// A reply with the right ID and question but from another endpoint than
// the one queried does not answer the query either (RFC 5452 §3): it is
// counted as unmatched and the query still times out.
TEST(RealtimeTransport, ReplyFromWrongSourceLeavesQueryTimedOut) {
  UdpResponder responder({.wrong_source = true});
  ASSERT_TRUE(responder.ok());
  auto records = MakeTraceTo(responder.endpoint(), 50, Millis(1));

  RealtimeConfig config;
  config.server = responder.endpoint();
  config.n_distributors = 1;
  config.queriers_per_distributor = 1;
  config.fast_mode = true;
  config.query_timeout = Millis(150);
  config.max_retransmits = 0;

  auto report = RunRealtimeReplay(records, config);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 50u);
  EXPECT_EQ(report->answered, 0u);
  EXPECT_EQ(report->timed_out, 50u);
  EXPECT_EQ(report->unmatched_replies, responder.replies());
  EXPECT_GT(report->unmatched_replies, 0u);
  ExpectTerminalAccounting(*report);
}

// The TCP twin: a frame with the right ID but another question does not
// answer the query either.
TEST(RealtimeTransport, TcpWrongQuestionReplyLeavesQueryTimedOut) {
  WrongQuestionTcp responder;
  ASSERT_TRUE(responder.ok());
  auto records = MakeTraceTo(responder.endpoint(), 50, Millis(1));
  ForceTcp(records);

  RealtimeConfig config;
  config.server = responder.endpoint();
  config.n_distributors = 1;
  config.queriers_per_distributor = 1;
  config.fast_mode = true;
  config.query_timeout = Millis(150);

  auto report = RunRealtimeReplay(records, config);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 50u);
  EXPECT_EQ(report->answered, 0u);
  EXPECT_EQ(report->timed_out, 50u);
  EXPECT_EQ(report->unmatched_replies, responder.replies());
  EXPECT_GT(report->unmatched_replies, 0u);
  ExpectTerminalAccounting(*report);
}

// The send queue accepts records in any order and still sends them in
// trace-time order.
TEST_F(RealtimeReplayTest, OutOfOrderFeedStillSendsInTraceOrder) {
  auto records = MakeTrace(200, Micros(500));
  std::shuffle(records.begin(), records.end(), std::mt19937(7));
  RealtimeConfig config = MakeConfig();
  config.n_distributors = 1;

  // Far enough ahead that every record is queued before the first is due.
  auto pipeline =
      ReplayPipeline::Start(config, MonotonicNow() + Millis(500), 0);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().ToString();
  for (const auto& record : records) (*pipeline)->Feed({&record, 1});
  auto report = (*pipeline)->Finish();
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 200u);
  EXPECT_GE(report->answered, 198u);
  ExpectTerminalAccounting(*report);

  // One distributor thread stamps its sends in the order it makes them,
  // so in trace order the stamps never go backwards. (Queries sent in one
  // pass share a stamp: a tie says nothing about their order.)
  std::vector<const SendOutcome*> by_trace;
  for (const auto& send : report->sends) by_trace.push_back(&send);
  std::sort(by_trace.begin(), by_trace.end(),
            [](const SendOutcome* a, const SendOutcome* b) {
              return a->trace_time < b->trace_time;
            });
  for (size_t i = 1; i < by_trace.size(); ++i) {
    EXPECT_LE(by_trace[i - 1]->sent, by_trace[i]->sent)
        << "query " << i << " (trace order) left out of trace order";
  }
}

// At 10 us gaps a send pass takes along the queries due within
// kSendWindow: no query leaves more than the window early, and the queries
// of one pass share its send stamp, so there are far fewer distinct stamps
// than sends. The live ledger records each early send's lead, bounded by
// the window too.
TEST_F(RealtimeReplayTest, DenseSendsSharePassesWithinTheWindow) {
  auto records = MakeTrace(3000, Micros(10));
  stats::MetricsRegistry metrics;
  RealtimeConfig config = MakeConfig();
  config.n_distributors = 1;
  config.metrics = &metrics;
  auto report = RunRealtimeReplay(records, config);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 3000u);
  ExpectTerminalAccounting(*report);

  std::vector<NanoTime> stamps;
  size_t early = 0;
  for (size_t i = 0; i < report->sends.size(); ++i) {
    const SendOutcome& send = report->sends[i];
    if (send.state == SendOutcome::State::kSendFailed) continue;
    EXPECT_GE(send.sent, send.trace_time - kSendWindow) << "query " << i;
    if (send.sent < send.trace_time) ++early;
    stamps.push_back(send.sent);
  }
  std::sort(stamps.begin(), stamps.end());
  const size_t distinct = static_cast<size_t>(
      std::unique(stamps.begin(), stamps.end()) - stamps.begin());
  EXPECT_LT(distinct * 10, report->queries_sent * 6)
      << distinct << " distinct stamps for " << report->queries_sent
      << " sends";

  const stats::MetricsSnapshot snapshot = metrics.Snapshot();
  const auto* lead = snapshot.Histogram("replay.send_early_ns");
  ASSERT_NE(lead, nullptr);
  EXPECT_EQ(lead->count, early);
  EXPECT_LE(lead->max, static_cast<uint64_t>(kSendWindow));
  // A distributor slowed down (TSan) may stay behind the whole trace and
  // send nothing early; on time, the window's followers leave early.
  if (!kUnderTsan) {
    EXPECT_GT(early, 0u);
  }
}

// At 1 ms gaps each pass holds only its head, which its timer sends no
// earlier than its trace time: the window never moves a sparse query, not
// even after a pass the host made late.
TEST_F(RealtimeReplayTest, SparseSendsAreNeverEarly) {
  auto records = MakeTrace(300, Millis(1));
  auto report = RunRealtimeReplay(records, MakeConfig());
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 300u);
  ExpectTerminalAccounting(*report);
  for (size_t i = 0; i < report->sends.size(); ++i) {
    const SendOutcome& send = report->sends[i];
    if (send.state == SendOutcome::State::kSendFailed) continue;
    EXPECT_GE(send.sent, send.trace_time) << "query " << i;
  }
}

// On a dense replay the querier sockets are read after each send, not
// when replies arrive. The reply time is the kernel's receive stamp: never
// before the query left, and taken while the responder was still inside
// its sendto, not when the distributor got round to reading the reply.
TEST(RealtimeTransport, DenseUdpReplyTimesAreKernelReceiveStamps) {
  UdpResponder responder;
  ASSERT_TRUE(responder.ok());
  const size_t kQueries = 1000;
  auto records = MakeTraceTo(responder.endpoint(), kQueries, Micros(150));

  RealtimeConfig config;
  config.server = responder.endpoint();
  config.n_distributors = 1;
  config.queriers_per_distributor = 2;
  config.query_timeout = Seconds(1);
  const NanoTime epoch = MonotonicNow() + Millis(200);
  auto pipeline = ReplayPipeline::Start(config, epoch, 0);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().ToString();
  (*pipeline)->Feed(records);
  auto report = (*pipeline)->Finish();
  const NanoTime finished = MonotonicNow() - epoch;
  responder.Stop();
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  ExpectTerminalAccounting(*report);
  EXPECT_GE(report->answered, kQueries - 2);

  size_t checked = 0, inside_sendto = 0;
  for (size_t i = 0; i < report->sends.size(); ++i) {
    const SendOutcome& send = report->sends[i];
    if (!send.answered()) continue;
    EXPECT_LE(send.sent, send.replied) << "query " << i;
    EXPECT_LE(send.replied, finished) << "query " << i;
    auto stamp = responder.stamps().find(records[i].qname.ToString());
    ASSERT_NE(stamp, responder.stamps().end());
    ++checked;
    // A few microseconds of slack for the wall-to-monotonic conversion.
    if (send.replied + epoch >= stamp->second.before - Micros(5) &&
        send.replied + epoch <= stamp->second.after + Micros(5)) {
      ++inside_sendto;
    }
  }
  ASSERT_GT(checked, 0u);
  // The kernel may stamp the first datagrams at read time while it turns
  // receive timestamps on; after that every stamp is inside the sendto.
  EXPECT_GE(inside_sendto, checked * 95 / 100)
      << inside_sendto << " of " << checked;
}

// Replies held back by the responder arrive while the dense replay keeps
// the querier sockets disarmed; read at the next send (or by the timeout
// wheel's tick, which reads before it expires anything), each ends
// answered, well inside its deadline.
TEST(RealtimeTransport, ReplyWaitingInDisarmedSocketIsAnswered) {
  UdpResponder responder({.delay = Millis(20)});
  ASSERT_TRUE(responder.ok());
  const size_t kQueries = 1000;
  auto records = MakeTraceTo(responder.endpoint(), kQueries, Micros(150));

  RealtimeConfig config;
  config.server = responder.endpoint();
  config.n_distributors = 1;
  config.queriers_per_distributor = 2;
  config.query_timeout = Seconds(1);
  auto report = RunRealtimeReplay(records, config);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, kQueries);
  EXPECT_EQ(report->answered, kQueries);
  EXPECT_EQ(report->timed_out, 0u);
  ExpectTerminalAccounting(*report);
  for (const auto& send : report->sends) {
    if (!send.answered()) continue;
    EXPECT_LT(send.replied - send.sent, config.query_timeout);
    EXPECT_GE(send.replied - send.sent, Millis(20));
  }
}

// ID-wrap regression: push more queries into one querier's UDP socket than
// the 16-bit ID space holds while nothing is answered. The allocator must
// probe (counting collisions) and, when all 65536 IDs are inflight at
// once, fail the overflow sends — never clobber a live entry, which is
// what the seed code did on wrap.
//
// The premise is that the first 65537 sends land inside one query timeout.
// The 800 ms default holds for an optimised build; a slower one (ASan,
// TSan) is re-run with a timeout of three times the fill time it measured,
// so the ID space fills on every build.
TEST(RealtimeTransport, IdWrapUnderSustainedLossKeepsAccounting) {
  BlackholeUdp blackhole;
  ASSERT_TRUE(blackhole.ok());
  const size_t kQueries = 70000;
  const size_t kIdSpace = 65536;
  auto records = MakeTraceTo(blackhole.endpoint(), kQueries, Micros(1));

  RealtimeConfig config;
  config.server = blackhole.endpoint();
  config.n_distributors = 1;
  config.queriers_per_distributor = 1;
  config.fast_mode = true;
  config.query_timeout = Millis(800);
  config.max_retransmits = 0;

  for (int attempt = 1;; ++attempt) {
    auto report = RunRealtimeReplay(records, config);
    ASSERT_TRUE(report.ok()) << report.error().ToString();
    EXPECT_EQ(report->queries_sent, kQueries);
    EXPECT_EQ(report->answered, 0u);
    EXPECT_EQ(report->timed_out + report->send_failed, kQueries);
    ExpectTerminalAccounting(*report);
    // How long the first query had been inflight when query 65536 wanted
    // an ID; a query that found every ID taken is never stamped.
    const SendOutcome& wrap = report->sends[kIdSpace];
    NanoDuration fill = wrap.state == SendOutcome::State::kSendFailed
                            ? 0
                            : wrap.sent - report->sends[0].sent;
    if (2 * fill < config.query_timeout) {
      // The ID space filled: the overflow must surface as collisions
      // and/or explicit send failures.
      EXPECT_GT(report->id_collisions + report->send_failed, 0u);
      break;
    }
    ASSERT_LT(attempt, 3) << "65537 sends took " << fill / 1'000'000
                          << " ms against a "
                          << config.query_timeout / 1'000'000
                          << " ms timeout";
    config.query_timeout = 3 * fill;
  }
}

TEST(RealtimeTransport, TcpConnectFailureEndsSendFailed) {
  DeadTcpPort dead;
  ASSERT_TRUE(dead.ok());
  auto records = MakeTraceTo(dead.endpoint(), 20, Millis(1), /*n_clients=*/5);
  ForceTcp(records);

  RealtimeConfig config;
  config.server = dead.endpoint();
  config.n_distributors = 1;
  config.queriers_per_distributor = 2;
  config.fast_mode = true;
  config.query_timeout = Seconds(5);  // must not be what ends the queries
  config.tcp_max_reconnects = 1;
  config.tcp_reconnect_backoff = Millis(5);

  NanoTime start = MonotonicNow();
  auto report = RunRealtimeReplay(records, config);
  NanoDuration elapsed = MonotonicNow() - start;
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 20u);
  EXPECT_EQ(report->answered, 0u);
  EXPECT_EQ(report->send_failed, 20u);
  EXPECT_GE(report->tcp_reconnects, 1u);
  ExpectTerminalAccounting(*report);
  // The reconnect budget, not the query timeout, must resolve the queries.
  if (!kUnderTsan) {
    EXPECT_LT(elapsed, Seconds(5));
  }
}

// Mid-stream close: a server that kills the first connection as soon as
// query bytes arrive, then echoes frames on later connections. The client
// must re-queue the inflight frames, reconnect, and still answer
// everything. Run under ASan this also exercises destroying a
// TcpConnection from inside its own data callback on the server side.
TEST(RealtimeTransport, TcpMidStreamCloseRequeuesAndRecovers) {
  auto loop = net::EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  std::vector<std::unique_ptr<net::TcpConnection>> conns;
  int accepted = 0;
  auto listener = net::TcpListener::Listen(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::unique_ptr<net::TcpConnection> conn) {
        net::TcpConnection* raw = conn.get();
        int index = accepted++;
        conns.push_back(std::move(conn));
        auto assembler = std::make_shared<dns::StreamAssembler>();
        auto status = net::TcpListener::AdoptHandlers(
            *raw,
            [&, raw, index, assembler](std::span<const uint8_t> data) {
              if (index == 0) {
                // Drop the first connection mid-stream, with the query
                // unanswered (and destroy it inside its own callback).
                for (auto& c : conns) {
                  if (c.get() == raw) c.reset();
                }
                return;
              }
              if (!assembler->Feed(data).ok()) return;
              while (auto wire = assembler->NextMessage()) {
                // Echo the query back; the client matches replies by ID.
                auto sent =
                    raw->Send(std::move(dns::FrameMessage(*wire)).value());
                EXPECT_TRUE(sent.ok());
              }
            },
            [](Status) {});
        EXPECT_TRUE(status.ok());
      });
  ASSERT_TRUE(listener.ok()) << listener.error().ToString();
  std::thread server_thread([&]() { (*loop)->Run(); });

  auto records =
      MakeTraceTo((*listener)->local(), 6, Millis(20), /*n_clients=*/1);
  ForceTcp(records);

  RealtimeConfig config;
  config.server = (*listener)->local();
  config.n_distributors = 1;
  config.queriers_per_distributor = 1;
  config.query_timeout = Seconds(5);
  config.tcp_reconnect_backoff = Millis(5);

  auto report = RunRealtimeReplay(records, config);
  (*loop)->RequestStop();
  server_thread.join();

  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 6u);
  EXPECT_EQ(report->answered, 6u);
  EXPECT_GE(report->tcp_reconnects, 1u);
  ExpectTerminalAccounting(*report);
}

TEST_F(RealtimeReplayTest, TcpClientIdleTimeoutClosesAndRedials) {
  // One source with 200 ms gaps and a 50 ms client idle timeout: the
  // connection must close between queries and redial, answering all of
  // them (the §5 idle-closure knob, client side).
  auto records = MakeTrace(4, Millis(200), /*n_clients=*/1);
  ForceTcp(records);

  RealtimeConfig config = MakeConfig();
  config.n_distributors = 1;
  config.queriers_per_distributor = 1;
  config.tcp_idle_timeout = Millis(50);

  auto report = RunRealtimeReplay(records, config);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, 4u);
  EXPECT_EQ(report->answered, 4u);
  EXPECT_GE(report->tcp_idle_closes, 1u);
  ExpectTerminalAccounting(*report);
}

TEST(RealtimeReplayErrors, EmptyTraceRejected) {
  RealtimeConfig config;
  config.server = Endpoint{IpAddress::Loopback(), 5353};
  EXPECT_FALSE(RunRealtimeReplay({}, config).ok());
}

// Without a query timeout a lost query would never reach a terminal
// outcome, so the replay refuses to start.
TEST(RealtimeReplayErrors, NonPositiveQueryTimeoutRejected) {
  for (NanoDuration timeout : {NanoDuration{0}, -Millis(1)}) {
    RealtimeConfig config;
    config.server = Endpoint{IpAddress::Loopback(), 5353};
    config.query_timeout = timeout;
    auto pipeline = ReplayPipeline::Start(config, MonotonicNow(), 0);
    ASSERT_FALSE(pipeline.ok()) << timeout;
    EXPECT_EQ(pipeline.error().code(), ErrorCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace ldp::replay
