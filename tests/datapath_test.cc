// Integration tests for the datagram path (net::UdpSocket opened with
// UdpSocket::Open): round-trip semantics and its datapath.* counters, the
// wildcard socket's OQDA delivery and source-spoofed replies the hierarchy
// proxy depends on, and the full serve→replay chain with exact terminal
// accounting.
#include "net/sockets.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "net/event_loop.h"
#include "replay/realtime.h"
#include "server/socket_server.h"
#include "stats/metrics.h"
#include "workload/traces.h"
#include "zone/masterfile.h"

namespace ldp::net {
namespace {

// One datagram each way; asserts the RecvItem address semantics: `from`
// is the sender, `to` is the address the datagram targeted (== local() for
// concretely-bound sockets), and `rx_time` is the kernel's receive stamp on
// the monotonic clock: after the send began and no later than the handler
// saw it. Both sockets count into one registry.
TEST(DatapathTest, EpollRoundTrip) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  stats::MetricsRegistry metrics;
  UdpOptions options;
  options.rx_timestamps = true;
  options.metrics = &metrics;
  // Slack for the wall-to-monotonic conversion of the kernel stamps.
  constexpr NanoDuration kClockSlack = Micros(50);

  const Bytes query = {'q', 'u', 'e', 'r', 'y'};
  const Bytes reply = {'r', 'e', 'p', 'l', 'y', '!'};

  std::unique_ptr<UdpSocket> server;
  size_t server_got = 0;
  Endpoint server_saw_from, server_saw_to;
  NanoTime server_rx = 0, server_handled = 0;
  auto server_result = UdpSocket::Open(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::span<const UdpSocket::RecvItem> batch) {
        server_handled = MonotonicNow();
        for (const auto& item : batch) {
          ++server_got;
          server_saw_from = item.from;
          server_saw_to = item.to;
          server_rx = item.rx_time;
          EXPECT_EQ(item.payload.size(), query.size());
          UdpSocket::SendItem out{reply, item.from, {}};
          EXPECT_EQ(server->SendBatch({&out, 1}), 1u);
        }
      },
      options);
  ASSERT_TRUE(server_result.ok()) << server_result.error().ToString();
  server = std::move(*server_result);
  ASSERT_NE(server->local().port, 0) << "ephemeral bind must resolve";

  size_t client_got = 0;
  Endpoint client_saw_from;
  Bytes client_payload;
  NanoTime client_rx = 0, client_handled = 0;
  auto client_result = UdpSocket::Open(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::span<const UdpSocket::RecvItem> batch) {
        client_handled = MonotonicNow();
        for (const auto& item : batch) {
          ++client_got;
          client_saw_from = item.from;
          client_rx = item.rx_time;
          client_payload.assign(item.payload.begin(), item.payload.end());
        }
        (*loop)->Stop();
      },
      options);
  ASSERT_TRUE(client_result.ok()) << client_result.error().ToString();
  auto client = std::move(*client_result);

  const NanoTime sent = MonotonicNow();
  ASSERT_TRUE(client->SendTo(query, server->local()).ok());
  (*loop)->ScheduleAfter(Seconds(2), [&] { (*loop)->Stop(); });  // safety
  (*loop)->Run();

  ASSERT_EQ(server_got, 1u);
  EXPECT_EQ(server_saw_from, client->local());
  EXPECT_EQ(server_saw_to, server->local());
  ASSERT_EQ(client_got, 1u);
  EXPECT_EQ(client_saw_from, server->local());
  EXPECT_EQ(client_payload, reply);

  EXPECT_GE(server_rx, sent - kClockSlack);
  EXPECT_LE(server_rx, server_handled + kClockSlack);
  EXPECT_GE(client_rx, server_rx);
  EXPECT_LE(client_rx, client_handled + kClockSlack);

  // One datagram each way: the query (SendTo) and the reply (SendBatch).
  const stats::MetricsSnapshot counts = metrics.Snapshot();
  EXPECT_EQ(counts.CounterValue("datapath.rx_frames"), 2u);
  EXPECT_EQ(counts.CounterValue("datapath.tx_frames"), 2u);
}

// The hierarchy-proxy contract: one wildcard socket hears every address on
// its port, reports the queried address in RecvItem::to, and replies can
// spoof that address back via SendItem::from.
TEST(DatapathTest, EpollWildcardPathDeliversOqdaAndSpoofsSource) {
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  const IpAddress alias = *IpAddress::Parse("127.6.5.4");
  const Bytes query = {'o', 'q', 'd', 'a'};
  const Bytes reply = {'o', 'k'};

  // Wildcard socket: unspecified address, ephemeral port; it reads
  // IP_PKTINFO.
  std::unique_ptr<UdpSocket> wildcard;
  Endpoint wildcard_saw_to;
  auto wildcard_result = UdpSocket::Open(
      **loop, Endpoint{IpAddress(), 0},
      [&](std::span<const UdpSocket::RecvItem> batch) {
        for (const auto& item : batch) {
          wildcard_saw_to = item.to;
          // Answer from the address the client actually queried.
          UdpSocket::SendItem out{reply, item.from, item.to};
          EXPECT_EQ(wildcard->SendBatch({&out, 1}), 1u);
        }
      });
  ASSERT_TRUE(wildcard_result.ok()) << wildcard_result.error().ToString();
  wildcard = std::move(*wildcard_result);
  const uint16_t port = wildcard->local().port;
  ASSERT_NE(port, 0);

  Endpoint client_saw_from;
  size_t client_got = 0;
  auto client_result = UdpSocket::Open(
      **loop, Endpoint{IpAddress::Loopback(), 0},
      [&](std::span<const UdpSocket::RecvItem> batch) {
        for (const auto& item : batch) {
          ++client_got;
          client_saw_from = item.from;
        }
        (*loop)->Stop();
      });
  ASSERT_TRUE(client_result.ok()) << client_result.error().ToString();
  auto client = std::move(*client_result);

  // Query an address nothing is bound to; only the wildcard socket hears it.
  ASSERT_TRUE(client->SendTo(query, Endpoint{alias, port}).ok());
  (*loop)->ScheduleAfter(Seconds(2), [&] { (*loop)->Stop(); });  // safety
  (*loop)->Run();

  EXPECT_EQ(wildcard_saw_to, (Endpoint{alias, port}));
  ASSERT_EQ(client_got, 1u);
  EXPECT_EQ(client_saw_from, (Endpoint{alias, port}))
      << "reply must carry the spoofed source";
}

// --- Full serve→replay chain ---

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

// Boots a SocketDnsServer, replays 200 queries through a querier, and
// checks the terminal-accounting invariant: every send ends answered,
// timed out, or failed — nothing vanishes.
TEST(DatapathTest, EpollServeReplayChainAccountsForEveryQuery) {
  constexpr size_t n = 200;
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());

  server::SocketDnsServer::Config config;
  config.listen = Endpoint{IpAddress::Loopback(), 0};
  config.serve_tcp = false;
  auto server = server::SocketDnsServer::Start(**loop, MakeEngine(), config);
  ASSERT_TRUE(server.ok()) << server.error().ToString();
  std::thread server_thread([&]() { (*loop)->Run(); });

  workload::FixedIntervalConfig trace_config;
  trace_config.interarrival = Millis(1);
  trace_config.duration = Millis(static_cast<int64_t>(n));
  trace_config.n_clients = 10;
  auto records = workload::MakeFixedIntervalTrace(trace_config);
  for (auto& r : records) {
    r.dst = (*server)->endpoint().addr;
    r.dst_port = (*server)->endpoint().port;
  }

  replay::RealtimeConfig replay_config;
  replay_config.server = (*server)->endpoint();
  replay_config.fast_mode = true;
  replay_config.query_timeout = Seconds(2);
  auto report = replay::RunRealtimeReplay(records, replay_config);
  (*loop)->RequestStop();
  server_thread.join();

  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_EQ(report->queries_sent, records.size());
  // The satellite invariant: counters tie out exactly.
  EXPECT_EQ(report->queries_sent,
            report->answered + report->timed_out + report->send_failed);
  // Loopback against a live server: effectively lossless.
  EXPECT_GE(report->answered, records.size() - 2);
}

}  // namespace
}  // namespace ldp::net
