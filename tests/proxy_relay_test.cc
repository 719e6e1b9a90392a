// HierarchyProxy (src/proxy/relay.h): the real-socket address-rewriting
// relay must deliver the paper's §2.4 contract — the meta server sees the
// OQDA as source (its split-horizon view selector) with the client's port
// preserved, and the reply returns from the address the client queried.
// Plus the NAT-table bounds: LRU eviction under pressure, idle expiry from
// the LRU's cold end, late replies for drained flows dropped-and-counted
// and relay sockets closed once the linger has passed; and
// the single wildcard listener's edges: traffic to local addresses it does
// not emulate, datagrams to a relay socket from anyone but the meta
// server, and a service port another socket already holds.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "dns/framing.h"
#include "dns/message.h"
#include "ledger_check.h"
#include "proxy/relay.h"
#include "replay/realtime.h"
#include "server/sharded_server.h"
#include "stats/metrics.h"
#include "workload/traces.h"
#include "zone/masterfile.h"

namespace ldp::proxy {
namespace {

// Two emulated nameserver addresses with disjoint split-horizon views:
// queries arriving (after rewrite) from kNsA must see zone a.test, from
// kNsB zone b.test. Both are 127/8 so they bind without interface config.
const IpAddress kNsA(127, 51, 0, 10);
const IpAddress kNsB(127, 52, 0, 10);

zone::ZoneSet OneZoneSet(const std::string& origin,
                         const std::string& answer_v4) {
  auto zone = zone::ParseMasterFile(
      "$ORIGIN " + origin + "\n" +
          "@ 3600 IN SOA ns1 admin 1 2 3 4 300\n"
          "@ IN NS ns1\n"
          "ns1 IN A 192.0.2.53\n"
          "* IN A " + answer_v4 + "\n",
      zone::MasterFileOptions{});
  EXPECT_TRUE(zone.ok()) << origin;
  zone::ZoneSet set;
  EXPECT_TRUE(
      set.AddZone(std::make_shared<zone::Zone>(std::move(*zone))).ok());
  return set;
}

std::shared_ptr<const zone::ViewTable> SplitHorizonViews() {
  zone::ViewTable views;
  EXPECT_TRUE(
      views.AddView("a", {kNsA}, OneZoneSet("a.test.", "192.0.2.1")).ok());
  EXPECT_TRUE(
      views.AddView("b", {kNsB}, OneZoneSet("b.test.", "192.0.2.2")).ok());
  return std::make_shared<const zone::ViewTable>(std::move(views));
}

sockaddr_in SockAddr(IpAddress addr, uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(addr.value());
  return sa;
}

// Blocking UDP client pinned to a specific local port, so the test can
// assert the rewrite preserved it end to end.
class UdpClient {
 public:
  explicit UdpClient(uint16_t local_port = 0) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{.tv_sec = 5, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in local = SockAddr(IpAddress::Loopback(), local_port);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&local),
                     sizeof(local)),
              0);
  }
  ~UdpClient() { ::close(fd_); }

  uint16_t port() const {
    sockaddr_in local{};
    socklen_t len = sizeof(local);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&local), &len);
    return ntohs(local.sin_port);
  }

  void SendTo(Endpoint dst, const Bytes& wire) {
    sockaddr_in sa = SockAddr(dst.addr, dst.port);
    EXPECT_EQ(::sendto(fd_, wire.data(), wire.size(), 0,
                       reinterpret_cast<sockaddr*>(&sa), sizeof(sa)),
              static_cast<ssize_t>(wire.size()));
  }

  // Returns the payload and fills `from` with the responder's address.
  Bytes Recv(IpAddress* from = nullptr, int timeout_ms = 5000) {
    timeval tv{.tv_sec = timeout_ms / 1000,
               .tv_usec = (timeout_ms % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    uint8_t buf[65536];
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    ssize_t got = ::recvfrom(fd_, buf, sizeof(buf), 0,
                             reinterpret_cast<sockaddr*>(&sa), &len);
    if (got <= 0) return {};
    if (from != nullptr) *from = IpAddress(ntohl(sa.sin_addr.s_addr));
    return Bytes(buf, buf + got);
  }

 private:
  int fd_ = -1;
};

Bytes MakeQueryWire(const std::string& qname, uint16_t id) {
  auto query = dns::Message::MakeQuery(*dns::Name::Parse(qname),
                                       dns::RRType::kA, false);
  query.id = id;
  return query.Encode();
}

// A stand-in meta server the test controls: records each query's rewritten
// source endpoint and replies only when told to, so eviction and expiry
// can be staged deterministically.
class ManualMeta {
 public:
  ManualMeta() {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{.tv_sec = 5, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in local = SockAddr(IpAddress::Loopback(), 0);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&local),
                     sizeof(local)),
              0);
  }
  ~ManualMeta() { ::close(fd_); }

  Endpoint endpoint() const {
    sockaddr_in local{};
    socklen_t len = sizeof(local);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&local), &len);
    return Endpoint{IpAddress::Loopback(), ntohs(local.sin_port)};
  }

  struct Seen {
    Endpoint from;  // the relay's rewritten source: (OQDA, client port)
    Bytes wire;
  };

  std::optional<Seen> Read(int timeout_ms = 5000) {
    timeval tv{.tv_sec = timeout_ms / 1000,
               .tv_usec = (timeout_ms % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    uint8_t buf[65536];
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    ssize_t got = ::recvfrom(fd_, buf, sizeof(buf), 0,
                             reinterpret_cast<sockaddr*>(&sa), &len);
    if (got <= 0) return std::nullopt;
    return Seen{Endpoint{IpAddress(ntohl(sa.sin_addr.s_addr)),
                         ntohs(sa.sin_port)},
                Bytes(buf, buf + got)};
  }

  void ReplyTo(const Seen& seen) {
    auto query = dns::Message::Decode(seen.wire);
    ASSERT_TRUE(query.ok());
    auto reply = *query;
    reply.qr = true;
    Bytes wire = reply.Encode();
    sockaddr_in sa = SockAddr(seen.from.addr, seen.from.port);
    EXPECT_EQ(::sendto(fd_, wire.data(), wire.size(), 0,
                       reinterpret_cast<sockaddr*>(&sa), sizeof(sa)),
              static_cast<ssize_t>(wire.size()));
  }

 private:
  int fd_ = -1;
};

bool WaitFor(const std::function<bool()>& done, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

TEST(HierarchyProxyTest, UdpRewriteRoundTripPreservesPortAndView) {
  server::ShardedDnsServer::Config sconfig;
  sconfig.listen = Endpoint{IpAddress::Loopback(), 0};
  sconfig.n_shards = 1;
  sconfig.serve_tcp = false;
  auto meta = server::ShardedDnsServer::Start(SplitHorizonViews(), sconfig);
  ASSERT_TRUE(meta.ok()) << meta.error().ToString();

  stats::MetricsRegistry registry;
  RelayConfig config;
  config.addresses = {kNsA, kNsB};
  config.meta_server = (*meta)->endpoint();
  config.splice_tcp = false;
  config.metrics = &registry;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  uint16_t service_port = (*relay)->port();
  ASSERT_NE(service_port, 0);

  // Same client socket queries both emulated addresses: each query must
  // match its address's view, and each reply must come back *from* the
  // address that was queried.
  UdpClient client;
  struct Case {
    IpAddress ns;
    std::string qname;
    IpAddress want;
  };
  for (const Case& c : {Case{kNsA, "www.a.test", IpAddress(192, 0, 2, 1)},
                        Case{kNsB, "www.b.test", IpAddress(192, 0, 2, 2)}}) {
    client.SendTo(Endpoint{c.ns, service_port}, MakeQueryWire(c.qname, 42));
    IpAddress from(0u);
    Bytes wire = client.Recv(&from);
    ASSERT_FALSE(wire.empty()) << c.qname;
    EXPECT_EQ(from, c.ns) << "reply must come from the queried address";
    auto reply = dns::Message::Decode(wire);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->rcode, dns::Rcode::kNoError) << c.qname;
    ASSERT_EQ(reply->answers.size(), 1u) << c.qname;
  }

  // The client can hold the reply before the shard thread has bumped its
  // counters (the datagram is queued mid-SendBatch, the Add comes after);
  // wait for the ledger to settle instead of racing it.
  WaitFor([&] { return (*relay)->TotalStats().responses_out >= 2; });
  RelayStats stats = (*relay)->TotalStats();
  EXPECT_EQ(stats.queries_in, 2u);
  EXPECT_EQ(stats.responses_out, 2u);
  // Port-preserving: both relay sockets bound (OQDA, client_port) without
  // falling back to an ephemeral port — the meta server saw the client's
  // own port, which is what view-keyed per-client state depends on.
  EXPECT_EQ(stats.port_fallbacks, 0u);
  EXPECT_EQ(stats.flows_created, 2u);  // one per (client, OQDA) pair

  // The same totals must be visible through the registry under proxy.*.
  stats::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("proxy.queries_in"), 2u);
  EXPECT_EQ(snapshot.CounterValue("proxy.responses_out"), 2u);
  EXPECT_EQ(snapshot.GaugeValue("proxy.flow_table"), stats.active_flows);
  EXPECT_NE(snapshot.Histogram("proxy.rewrite_ns"), nullptr);

  (*relay)->Stop();
  (*meta)->Stop();
  // The cells must survive Stop() for the final snapshot.
  EXPECT_EQ(registry.Snapshot().CounterValue("proxy.queries_in"), 2u);
}

TEST(HierarchyProxyTest, TcpSpliceRewriteRoundTrip) {
  server::ShardedDnsServer::Config sconfig;
  sconfig.listen = Endpoint{IpAddress::Loopback(), 0};
  sconfig.n_shards = 1;
  sconfig.serve_tcp = true;
  auto meta = server::ShardedDnsServer::Start(SplitHorizonViews(), sconfig);
  ASSERT_TRUE(meta.ok()) << meta.error().ToString();

  RelayConfig config;
  config.addresses = {kNsA, kNsB};
  config.meta_server = (*meta)->endpoint();
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();

  // TCP to the emulated address: the splice must dial the meta server
  // *from* kNsB so the split-horizon view still matches, then re-frame
  // the response back down this connection.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa = SockAddr(kNsB, (*relay)->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  Bytes framed =
      std::move(dns::FrameMessage(MakeQueryWire("deep.www.b.test", 99))).value();
  ASSERT_EQ(::write(fd, framed.data(), framed.size()),
            static_cast<ssize_t>(framed.size()));

  dns::StreamAssembler assembler;
  Bytes reply_wire;
  uint8_t buf[4096];
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  while (reply_wire.empty()) {
    ssize_t got = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(got, 0) << "no framed reply within timeout";
    ASSERT_TRUE(assembler.Feed(std::span<const uint8_t>(buf,
                                                        static_cast<size_t>(
                                                            got)))
                    .ok());
    if (auto message = assembler.NextMessage()) reply_wire = *message;
  }
  ::close(fd);

  auto reply = dns::Message::Decode(reply_wire);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->id, 99);
  EXPECT_EQ(reply->rcode, dns::Rcode::kNoError);
  ASSERT_EQ(reply->answers.size(), 1u);

  RelayStats stats = (*relay)->TotalStats();
  EXPECT_EQ(stats.tcp_accepted, 1u);
  EXPECT_EQ(stats.tcp_queries, 1u);
  EXPECT_EQ(stats.tcp_responses, 1u);
  (*relay)->Stop();
  (*meta)->Stop();
}

// Every RelayStats field equals the same-named cells in the registry the
// shards count into, while the shards still run: the proxy.* ledger, the
// flow-table gauge and the per-site load, over UDP and a TCP splice.
TEST(HierarchyProxyTest, LedgerViewEqualsTheRegistryWhileRelaying) {
  server::ShardedDnsServer::Config sconfig;
  sconfig.listen = Endpoint{IpAddress::Loopback(), 0};
  sconfig.n_shards = 1;
  auto meta = server::ShardedDnsServer::Start(SplitHorizonViews(), sconfig);
  ASSERT_TRUE(meta.ok()) << meta.error().ToString();

  stats::MetricsRegistry registry;
  RelayConfig config;
  config.addresses = {kNsA, kNsB};
  config.meta_server = (*meta)->endpoint();
  config.n_shards = 2;
  config.sites = {SiteSpec{"east", 0}, SiteSpec{"west", 0}};
  ASSERT_TRUE(config.catchment.AddRoute(IpAddress::Loopback(), 32, 1).ok());
  config.metrics = &registry;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  const uint16_t port = (*relay)->port();

  // Fresh client sockets spread the flows across both shards.
  const int kClients = 8;
  for (int i = 0; i < kClients; ++i) {
    UdpClient client;
    const IpAddress ns = i % 2 == 0 ? kNsA : kNsB;
    client.SendTo(Endpoint{ns, port},
                  MakeQueryWire(i % 2 == 0 ? "www.a.test" : "www.b.test",
                                static_cast<uint16_t>(i + 1)));
    ASSERT_FALSE(client.Recv().empty()) << "client " << i;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa = SockAddr(kNsA, port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  Bytes framed =
      std::move(dns::FrameMessage(MakeQueryWire("tcp.a.test", 77))).value();
  ASSERT_EQ(::write(fd, framed.data(), framed.size()),
            static_cast<ssize_t>(framed.size()));
  uint8_t buf[512];
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ASSERT_GT(::read(fd, buf, sizeof(buf)), 0);

  // A shard bumps its cells just after handing a reply to the kernel;
  // wait for the last of them.
  ASSERT_TRUE(WaitFor([&] {
    RelayStats now = (*relay)->TotalStats();
    return now.responses_out >= kClients && now.tcp_responses >= 1;
  }));
  const RelayStats stats = (*relay)->TotalStats();
  const stats::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(stats.queries_in, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.flows_created, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.active_flows, kClients);
  EXPECT_EQ(stats.tcp_queries, 1u);
  ledger_check::ExpectViewMatchesSnapshot<kRelayLedger>(stats, snapshot);
  EXPECT_EQ(snapshot.GaugeValue("proxy.flow_table"), stats.active_flows);
  ASSERT_EQ(stats.sites.size(), 2u);
  EXPECT_EQ(stats.sites[1].queries_in, static_cast<uint64_t>(kClients));
  for (const auto& site : stats.sites) {
    EXPECT_EQ(snapshot.CounterValue("proxy.site." + site.name + ".queries"),
              site.queries_in);
    EXPECT_EQ(
        snapshot.CounterValue("proxy.site." + site.name + ".responses"),
        site.responses_out);
  }
  ::close(fd);
  (*relay)->Stop();
  (*meta)->Stop();
}

TEST(HierarchyProxyTest, LruEvictionDropsAndCountsLateReplies) {
  ManualMeta meta;

  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = meta.endpoint();
  config.flow_capacity = 4;
  config.flow_linger = Seconds(5);  // keep drained sockets observable
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  Endpoint service{kNsA, (*relay)->port()};

  // Six distinct client ports → six flows through a table of four: the
  // two oldest get LRU-evicted into the draining state.
  std::vector<std::unique_ptr<UdpClient>> clients;
  std::vector<ManualMeta::Seen> seen;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(std::make_unique<UdpClient>());
    clients.back()->SendTo(service,
                           MakeQueryWire("q" + std::to_string(i) + ".a.test",
                                         static_cast<uint16_t>(i)));
    auto arrived = meta.Read();
    ASSERT_TRUE(arrived.has_value()) << "query " << i << " never relayed";
    EXPECT_EQ(arrived->from.addr, kNsA);  // rewritten source is the OQDA
    EXPECT_EQ(arrived->from.port, clients.back()->port());
    seen.push_back(*arrived);
  }
  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().flows_evicted >= 2;
  })) << "LRU never evicted under pressure";
  RelayStats stats = (*relay)->TotalStats();
  EXPECT_EQ(stats.flows_created, 6u);
  EXPECT_EQ(stats.active_flows, 4);

  // A late reply for the oldest (evicted) flow must be dropped and
  // counted, not forwarded to the client.
  meta.ReplyTo(seen[0]);
  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().evicted_drops >= 1;
  })) << "late reply for drained flow was not counted";
  EXPECT_TRUE(clients[0]->Recv(nullptr, 200).empty())
      << "evicted flow must not deliver";

  // A reply for a still-resident flow is delivered normally.
  meta.ReplyTo(seen[5]);
  EXPECT_FALSE(clients[5]->Recv(nullptr, 5000).empty());
  (*relay)->Stop();
}

TEST(HierarchyProxyTest, IdleFlowsExpire) {
  ManualMeta meta;

  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = meta.endpoint();
  config.flow_idle_timeout = Millis(50);
  config.flow_linger = Millis(50);
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();

  UdpClient client;
  client.SendTo(Endpoint{kNsA, (*relay)->port()},
                MakeQueryWire("idle.a.test", 1));
  ASSERT_TRUE(meta.Read().has_value());
  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().flows_expired >= 1;
  })) << "idle flow never expired";
  EXPECT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().active_flows == 0;
  }));
  (*relay)->Stop();
}

// A flow that keeps talking outlives its idle timeout: every query moves
// it to the LRU's hot end, so the tick never finds it at the cold end
// with its idle timeout passed.
TEST(HierarchyProxyTest, ActiveFlowOutlivesItsIdleTimeout) {
  ManualMeta meta;

  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = meta.endpoint();
  config.flow_idle_timeout = Millis(100);
  config.flow_linger = Millis(50);
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();

  UdpClient client;
  const Endpoint service{kNsA, (*relay)->port()};
  for (uint16_t i = 0; i < 20; ++i) {  // ~400 ms, four idle timeouts
    client.SendTo(service, MakeQueryWire("busy.a.test", i));
    ASSERT_TRUE(meta.Read().has_value()) << "query " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  RelayStats stats = (*relay)->TotalStats();
  EXPECT_EQ(stats.flows_created, 1u);
  EXPECT_EQ(stats.flows_expired, 0u) << "an active flow must not expire";

  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().flows_expired >= 1;
  })) << "the flow never expired once it went quiet";
  (*relay)->Stop();
}

// Idle expiry pops the LRU's cold end and stops at the first flow not yet
// due: a quiet flow behind a busy one goes, the busy one stays.
TEST(HierarchyProxyTest, ColdFlowExpiresBesideAHotOne) {
  ManualMeta meta;

  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = meta.endpoint();
  config.flow_idle_timeout = Millis(100);
  config.flow_linger = Seconds(5);  // keep the drained socket observable
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  const Endpoint service{kNsA, (*relay)->port()};

  UdpClient quiet;
  quiet.SendTo(service, MakeQueryWire("quiet.a.test", 1));
  auto quiet_seen = meta.Read();
  ASSERT_TRUE(quiet_seen.has_value()) << "quiet query never relayed";

  UdpClient busy;
  for (uint16_t i = 0; i < 20; ++i) {  // ~400 ms, four idle timeouts
    busy.SendTo(service, MakeQueryWire("busy.a.test", i));
    auto seen = meta.Read();
    ASSERT_TRUE(seen.has_value()) << "query " << i;
    meta.ReplyTo(*seen);
    EXPECT_FALSE(busy.Recv(nullptr, 5000).empty()) << "reply " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().flows_expired >= 1;
  })) << "the quiet flow never expired";
  RelayStats stats = (*relay)->TotalStats();
  EXPECT_EQ(stats.flows_created, 2u);
  EXPECT_EQ(stats.flows_expired, 1u);
  EXPECT_EQ(stats.active_flows, 1);

  // The drained flow is the quiet one: its late reply is dropped and
  // counted, while the busy flow still answers.
  meta.ReplyTo(*quiet_seen);
  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().evicted_drops >= 1;
  })) << "the quiet flow was not the drained one";
  EXPECT_TRUE(quiet.Recv(nullptr, 200).empty());
  busy.SendTo(service, MakeQueryWire("busy.a.test", 99));
  auto last = meta.Read();
  ASSERT_TRUE(last.has_value());
  meta.ReplyTo(*last);
  EXPECT_FALSE(busy.Recv(nullptr, 5000).empty());
  EXPECT_EQ((*relay)->TotalStats().active_flows, 1);
  (*relay)->Stop();
}

// A drained flow's relay socket closes once its linger has passed, which
// frees its (OQDA, client port) for a port-preserving bind again.
TEST(HierarchyProxyTest, DrainedFlowReleasesItsPortAfterLinger) {
  ManualMeta meta;

  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = meta.endpoint();
  config.flow_capacity = 1;
  config.flow_linger = Millis(100);
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  const Endpoint service{kNsA, (*relay)->port()};

  UdpClient a;
  UdpClient b;
  a.SendTo(service, MakeQueryWire("a1.a.test", 1));
  ASSERT_TRUE(meta.Read().has_value());
  b.SendTo(service, MakeQueryWire("b1.a.test", 2));  // evicts a's flow
  ASSERT_TRUE(meta.Read().has_value());
  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().flows_evicted >= 1;
  }));

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  a.SendTo(service, MakeQueryWire("a2.a.test", 3));
  auto again = meta.Read();
  ASSERT_TRUE(again.has_value()) << "a's second query never relayed";
  EXPECT_EQ(again->from.addr, kNsA);
  EXPECT_EQ(again->from.port, a.port());
  const RelayStats stats = (*relay)->TotalStats();
  EXPECT_EQ(stats.flows_created, 3u);
  EXPECT_EQ(stats.port_fallbacks, 0u);
  (*relay)->Stop();
}

// Both expiry orders rely on one positive idle timeout and one
// non-negative linger, so Start refuses anything else by field name.
TEST(HierarchyProxyTest, StartRefusesNonPositiveIdleTimeoutOrNegativeLinger) {
  ManualMeta meta;
  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = meta.endpoint();
  config.splice_tcp = false;

  for (NanoDuration idle : {NanoDuration{0}, Millis(-1)}) {
    RelayConfig bad = config;
    bad.flow_idle_timeout = idle;
    auto relay = HierarchyProxy::Start(bad);
    ASSERT_FALSE(relay.ok()) << "idle timeout " << idle;
    EXPECT_EQ(relay.error().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(relay.error().message().find("flow_idle_timeout"),
              std::string::npos);
  }
  RelayConfig bad = config;
  bad.flow_linger = Millis(-1);
  auto refused = HierarchyProxy::Start(bad);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(refused.error().message().find("flow_linger"), std::string::npos);

  RelayConfig no_linger = config;
  no_linger.flow_linger = 0;
  auto started = HierarchyProxy::Start(no_linger);
  ASSERT_TRUE(started.ok()) << started.error().ToString();
  (*started)->Stop();
}

// Relay sockets are connected to the meta server: a datagram from anyone
// else to a live flow's (OQDA, client port) is not taken for an answer.
TEST(HierarchyProxyTest, RelaySocketTakesRepliesOnlyFromTheMetaServer) {
  ManualMeta meta;

  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = meta.endpoint();
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();

  UdpClient client;
  client.SendTo(Endpoint{kNsA, (*relay)->port()},
                MakeQueryWire("spoof.a.test", 7));
  auto seen = meta.Read();
  ASSERT_TRUE(seen.has_value()) << "query never relayed";

  // A third party sends a well-formed answer to the flow's relay socket.
  auto query = dns::Message::Decode(seen->wire);
  ASSERT_TRUE(query.ok());
  dns::Message forged = *query;
  forged.qr = true;
  UdpClient stranger;
  stranger.SendTo(seen->from, forged.Encode());
  EXPECT_TRUE(client.Recv(nullptr, 300).empty())
      << "a datagram from outside the meta server reached the client";
  EXPECT_EQ((*relay)->TotalStats().responses_in, 0u);

  // The meta server's own reply still goes through.
  meta.ReplyTo(*seen);
  EXPECT_FALSE(client.Recv(nullptr, 5000).empty());
  EXPECT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().responses_in == 1;
  }));
  (*relay)->Stop();
}

// The proxy listens on every local address at its service port; traffic
// to one it does not emulate is counted and dropped, not forwarded.
TEST(HierarchyProxyTest, NonEmulatedLocalAddressIsPassedThrough) {
  ManualMeta meta;

  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = meta.endpoint();
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  const Endpoint stranger{kNsB, (*relay)->port()};

  UdpClient client;
  client.SendTo(stranger, MakeQueryWire("www.b.test", 1));
  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().passed_through >= 1;
  })) << "datagram to a non-emulated address was not counted";
  EXPECT_FALSE(meta.Read(200).has_value()) << "it must not be forwarded";

  // A stream to the same address is accepted by the kernel, then closed.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa = SockAddr(stranger.addr, stranger.port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  uint8_t byte;
  EXPECT_EQ(::read(fd, &byte, 1), 0) << "the proxy must close the stream";
  ::close(fd);

  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().passed_through >= 2;
  }));
  RelayStats stats = (*relay)->TotalStats();
  EXPECT_EQ(stats.passed_through, 2u);
  EXPECT_EQ(stats.flows_created, 0u);
  EXPECT_EQ(stats.tcp_accepted, 0u);
  EXPECT_EQ(stats.rewritten, 0u);
  (*relay)->Stop();
}

// The proxy takes its service port on every local address, so a socket
// already holding one of them there makes Start fail, and say which port.
TEST(HierarchyProxyTest, WildcardBindConflictNamesThePort) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa = SockAddr(kNsB, 0);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  socklen_t len = sizeof(sa);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  const uint16_t port = ntohs(sa.sin_port);

  RelayConfig config;
  config.addresses = {kNsA};
  config.port = port;
  config.meta_server = Endpoint{IpAddress::Loopback(), 53};
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ::close(fd);
  ASSERT_FALSE(relay.ok()) << "bind over a held address must fail";
  EXPECT_NE(relay.error().message().find(std::to_string(port)),
            std::string::npos)
      << relay.error().ToString();
}

TEST(HierarchyProxyTest, RestartMidReplayRetransmitsRecover) {
  // Wildcard view keyed on the emulated source, so every replayed query
  // is answerable.
  zone::ViewTable views;
  ASSERT_TRUE(
      views.AddView("a", {kNsA}, OneZoneSet("a.test.", "192.0.2.9")).ok());
  auto shared_views =
      std::make_shared<const zone::ViewTable>(std::move(views));

  server::ShardedDnsServer::Config sconfig;
  sconfig.listen = Endpoint{IpAddress::Loopback(), 0};
  sconfig.n_shards = 1;
  sconfig.serve_tcp = false;
  auto meta = server::ShardedDnsServer::Start(shared_views, sconfig);
  ASSERT_TRUE(meta.ok()) << meta.error().ToString();

  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = (*meta)->endpoint();
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  const uint16_t service_port = (*relay)->port();

  workload::FixedIntervalConfig tconfig;
  tconfig.interarrival = Millis(1);
  tconfig.duration = Millis(600);
  tconfig.n_clients = 8;
  tconfig.base_name = *dns::Name::Parse("a.test");
  auto records = workload::MakeFixedIntervalTrace(tconfig);
  for (auto& record : records) {
    record.dst = kNsA;
    record.dst_port = service_port;
  }

  replay::RealtimeConfig rconfig;
  rconfig.follow_trace_dst = true;  // already bindable 127/8 addresses
  rconfig.n_distributors = 1;
  rconfig.queriers_per_distributor = 1;
  rconfig.query_timeout = Millis(250);
  rconfig.max_retransmits = 4;

  // Kill the proxy ~1/4 into the replay and bring a fresh one up on the
  // same port: queries in flight during the gap must be recovered by the
  // replay engine's retransmits, landing on the restarted proxy.
  std::thread restarter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    (*relay)->Stop();
    RelayConfig again = config;
    again.port = service_port;
    auto second = HierarchyProxy::Start(again);
    ASSERT_TRUE(second.ok()) << second.error().ToString();
    relay = std::move(second);
  });
  auto report = replay::RunRealtimeReplay(records, rconfig);
  restarter.join();
  ASSERT_TRUE(report.ok()) << report.error().ToString();

  EXPECT_EQ(report->queries_sent, records.size());
  EXPECT_EQ(report->answered, records.size())
      << "retransmits must recover queries lost across the restart "
      << "(timed_out=" << report->timed_out
      << " send_failed=" << report->send_failed << ")";
  (*relay)->Stop();
  (*meta)->Stop();
}

}  // namespace
}  // namespace ldp::proxy
