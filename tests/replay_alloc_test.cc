// Steady-state heap allocation on both sides of ReplayPipeline. A timed
// UDP replay against a local responder must cost at most one heap
// allocation per query on the distributor thread, once queues, inflight
// slots and buffers have grown to their working size; and Feed must cost
// the feeder a few allocations per call, not one per record.
//
// A counting global operator new counts every allocation made on a thread
// that has not opted out; the test's own threads (this feeder and the
// responder) opt out, which leaves exactly the pipeline's distributor.
// Each thread also counts its own allocations, opted out or not. Every
// thread's allocations also count into the process's live heap bytes and
// their peak. The binary is separate because replacing operator new is
// global.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "replay/realtime.h"

namespace {

std::atomic<uint64_t> g_allocations{0};
thread_local bool t_uncounted = false;
thread_local uint64_t t_allocations = 0;

std::atomic<uint64_t> g_live_bytes{0};
std::atomic<uint64_t> g_peak_bytes{0};

void* CountedAlloc(size_t size) {
  ++t_allocations;
  if (!t_uncounted) g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const uint64_t live =
      g_live_bytes.fetch_add(malloc_usable_size(p),
                             std::memory_order_relaxed) +
      malloc_usable_size(p);
  uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live,
                                             std::memory_order_relaxed)) {
  }
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }

namespace ldp::replay {
namespace {

// Answers every datagram by echoing it with QR set: the reply carries the
// query's ID and question, so the querier matches it. Allocation-free.
class EchoResponder {
 public:
  EchoResponder() {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd_ < 0 ||
        ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return;
    }
    int rcvbuf = 4 << 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    endpoint_ = Endpoint{IpAddress::Loopback(), ntohs(addr.sin_port)};
    thread_ = std::thread([this]() { Serve(); });
  }
  ~EchoResponder() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return endpoint_.port != 0; }
  Endpoint endpoint() const { return endpoint_; }

 private:
  void Serve() {
    t_uncounted = true;
    uint8_t buf[1500];
    while (!stop_) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      sockaddr_in from{};
      socklen_t from_len = sizeof(from);
      ssize_t n = ::recvfrom(fd_, buf, sizeof(buf), 0,
                             reinterpret_cast<sockaddr*>(&from), &from_len);
      if (n < 12) continue;
      buf[2] |= 0x80;  // QR
      ::sendto(fd_, buf, static_cast<size_t>(n), 0,
               reinterpret_cast<sockaddr*>(&from), from_len);
    }
  }

  int fd_ = -1;
  Endpoint endpoint_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(ReplayAllocation, DistributorAllocatesAtMostOncePerQuery) {
  t_uncounted = true;
  EchoResponder responder;
  ASSERT_TRUE(responder.ok());

  // 30k queries 25 us apart (40k q/s, the order of the B-Root median
  // rate), from 500 sources over 64 names; the first 5k warm up the
  // queues, inflight slots and buffers, the next 20k are measured.
  constexpr size_t kQueries = 30'000;
  constexpr uint64_t kWarmup = 5'000;
  constexpr uint64_t kMeasured = 20'000;
  std::vector<dns::Name> names;
  for (int i = 0; i < 64; ++i) {
    names.push_back(*dns::Name::Parse("host" + std::to_string(i) +
                                      ".example.com"));
  }
  std::vector<trace::QueryRecord> records(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    trace::QueryRecord& record = records[i];
    record.timestamp = static_cast<NanoTime>(i) * Micros(25);
    record.src = IpAddress(10, 0, static_cast<uint8_t>(i % 500 / 250),
                           static_cast<uint8_t>(i % 250 + 1));
    record.qname = names[i % names.size()];
    record.edns = true;
    record.udp_payload_size = 1232;
  }

  stats::MetricsRegistry metrics;
  RealtimeConfig config;
  config.server = responder.endpoint();
  config.n_distributors = 1;
  config.queriers_per_distributor = 2;
  config.query_timeout = Seconds(1);
  config.metrics = &metrics;
  auto pipeline =
      ReplayPipeline::Start(config, MonotonicNow() + Millis(100), 0);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().ToString();
  (*pipeline)->Feed(records);
  (*pipeline)->CloseInput();

  // Sample the distributor's allocation count as the send count crosses
  // the window's edges (polled: each edge lands within a few queries).
  auto sample_at = [&](uint64_t sent) {
    while ((*pipeline)->SentCount() < sent && !(*pipeline)->Done()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return std::make_pair((*pipeline)->SentCount(),
                          g_allocations.load(std::memory_order_relaxed));
  };
  const auto [sent0, allocs0] = sample_at(kWarmup);
  const auto [sent1, allocs1] = sample_at(sent0 + kMeasured);
  auto report = (*pipeline)->Finish();
  ASSERT_TRUE(report.ok()) << report.error().ToString();

  EXPECT_EQ(report->queries_sent, kQueries);
  EXPECT_EQ(report->queries_sent,
            report->answered + report->timed_out + report->send_failed);
  // Most replies are read (the reply path is part of the measured work);
  // a host stall may drop some, which only turns them into timeouts.
  EXPECT_GT(report->answered, kQueries / 2);
  ASSERT_GE(sent1 - sent0, kMeasured);
  const double per_query = static_cast<double>(allocs1 - allocs0) /
                           static_cast<double>(sent1 - sent0);
  std::printf("distributor: %.3f allocations per query (%llu over %llu)\n",
              per_query,
              static_cast<unsigned long long>(allocs1 - allocs0),
              static_cast<unsigned long long>(sent1 - sent0));
  EXPECT_LE(per_query, 1.0) << (allocs1 - allocs0) << " allocations over "
                            << (sent1 - sent0) << " queries";
}

// The feeder's side: every record's qname fits inside its dns::Name, so
// copying records into QueryJobs allocates nothing, and handing a batch to
// a distributor's queue moves the batch whole. A Feed call then costs its
// outcome chunk and one vector per distributor batch.
TEST(ReplayAllocation, FeedAllocatesPerCallNotPerRecord) {
  t_uncounted = true;
  EchoResponder responder;
  ASSERT_TRUE(responder.ok());

  constexpr size_t kPerFeed = 1'000;
  constexpr size_t kFeeds = 20;
  std::vector<dns::Name> names;
  for (int i = 0; i < 64; ++i) {
    names.push_back(*dns::Name::Parse("host" + std::to_string(i) +
                                      ".example.com"));
    ASSERT_LE(names.back().WireLength(), 23u);
  }
  std::vector<trace::QueryRecord> records(kPerFeed * (kFeeds + 1));
  for (size_t i = 0; i < records.size(); ++i) {
    trace::QueryRecord& record = records[i];
    record.src = IpAddress(10, 0, static_cast<uint8_t>(i % 500 / 250),
                           static_cast<uint8_t>(i % 250 + 1));
    record.qname = names[i % names.size()];
  }

  RealtimeConfig config;
  config.server = responder.endpoint();
  config.n_distributors = 2;
  config.queriers_per_distributor = 1;
  config.fast_mode = true;
  config.query_timeout = Seconds(1);
  auto pipeline = ReplayPipeline::Start(config, MonotonicNow(), 0);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().ToString();
  std::span<const trace::QueryRecord> all(records);
  // The first call meets every source, which the sticky router records.
  (*pipeline)->Feed(all.first(kPerFeed));
  const uint64_t before = t_allocations;
  for (size_t feed = 1; feed <= kFeeds; ++feed) {
    (*pipeline)->Feed(all.subspan(feed * kPerFeed, kPerFeed));
  }
  const uint64_t allocations = t_allocations - before;
  (*pipeline)->CloseInput();
  auto report = (*pipeline)->Finish();
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, records.size());
  EXPECT_EQ(report->queries_sent,
            report->answered + report->timed_out + report->send_failed);

  std::printf("feeder: %.2f allocations per Feed of %zu records\n",
              static_cast<double>(allocations) / kFeeds, kPerFeed);
  // The outcome chunk, an occasional block of the chunk deque, and per
  // distributor its batch plus, when the distributor has not yet drained
  // the previous batch, the growth of its queue.
  EXPECT_LE(allocations, kFeeds * (2 + 2 * config.n_distributors));
}

// Finish hands the outcome chunks to the report: it must not hold every
// outcome twice on the way. Many Feed calls make many chunks, as a timed
// replay's look-ahead windows do.
TEST(ReplayAllocation, FinishDoesNotCopyTheOutcomes) {
  t_uncounted = true;
  EchoResponder responder;
  ASSERT_TRUE(responder.ok());

  constexpr size_t kPerFeed = 2'000;
  constexpr size_t kFeeds = 25;
  std::vector<trace::QueryRecord> records(kPerFeed * kFeeds);
  for (size_t i = 0; i < records.size(); ++i) {
    trace::QueryRecord& record = records[i];
    record.src = IpAddress(10, 0, 0, static_cast<uint8_t>(i % 250 + 1));
    record.qname = *dns::Name::Parse("host.example.com");
    record.timestamp = static_cast<NanoTime>(i) * 1000;  // fast mode: unpaced
  }

  RealtimeConfig config;
  config.server = responder.endpoint();
  config.n_distributors = 2;
  config.queriers_per_distributor = 1;
  config.fast_mode = true;
  config.query_timeout = Millis(500);
  auto pipeline = ReplayPipeline::Start(config, MonotonicNow(), 0);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().ToString();
  std::span<const trace::QueryRecord> all(records);
  for (size_t feed = 0; feed < kFeeds; ++feed) {
    (*pipeline)->Feed(all.subspan(feed * kPerFeed, kPerFeed));
  }
  (*pipeline)->CloseInput();
  while (!(*pipeline)->Done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const uint64_t held = g_live_bytes.load();
  g_peak_bytes.store(held);
  auto report = (*pipeline)->Finish();
  const uint64_t peak = g_peak_bytes.load();
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  ASSERT_EQ(report->sends.size(), records.size());
  EXPECT_EQ(report->queries_sent,
            report->answered + report->timed_out + report->send_failed);

  // The outcomes are held on entry; the peak counts them once, plus
  // whatever Finish allocates besides.
  const double sends_bytes =
      static_cast<double>(report->sends.size() * sizeof(SendOutcome));
  const double ratio =
      (static_cast<double>(peak - held) + sends_bytes) / sends_bytes;
  std::printf("Finish: heap peak %.2fx the bytes of the returned outcomes\n",
              ratio);
  EXPECT_LT(ratio, 1.25);

  // Every outcome is in trace order, whichever chunk holds it: outcome i
  // carries record i's trace time.
  size_t i = 0;
  for (const SendOutcome& send : report->sends) {
    ASSERT_EQ(send.trace_time, records[i].timestamp);
    ASSERT_EQ(&send, &report->sends[i]);
    ++i;
  }
  EXPECT_EQ(i, records.size());
}

}  // namespace
}  // namespace ldp::replay
