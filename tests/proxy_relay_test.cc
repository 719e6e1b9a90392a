// HierarchyProxy (src/proxy/relay.h): the real-socket address-rewriting
// relay must deliver the paper's §2.4 contract — the meta server sees the
// OQDA as source (its split-horizon view selector), and the reply returns
// from the address the client queried, byte-identical to the meta
// server's direct answer. Plus the ID ring's edges: two clients sharing a
// DNS ID, replies to a freed slot, from a stranger or to the wrong OQDA
// counted and never delivered, and a full wrap of unanswered queries
// reclaimed; and the single wildcard listener's edges: traffic to local
// addresses it does not emulate and a service port another socket already
// holds.
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

// Blocking UDP client bound to an ephemeral port on `local`.
class UdpClient {
 public:
  explicit UdpClient(IpAddress local = IpAddress::Loopback()) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{.tv_sec = 5, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in local_sa = SockAddr(local, 0);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&local_sa),
                     sizeof(local_sa)),
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
// source endpoint and replies only when told to, so late, duplicate and
// misdirected replies can be staged deterministically.
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
    Endpoint from;  // the relay's rewritten source: (OQDA, upstream port)
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

  // Answers `seen` at its source, or at `to` when that is set.
  void ReplyTo(const Seen& seen, std::optional<Endpoint> to = std::nullopt) {
    auto query = dns::Message::Decode(seen.wire);
    ASSERT_TRUE(query.ok());
    auto reply = *query;
    reply.qr = true;
    Bytes wire = reply.Encode();
    const Endpoint dst = to.value_or(seen.from);
    sockaddr_in sa = SockAddr(dst.addr, dst.port);
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

TEST(HierarchyProxyTest, UdpRewriteRoundTripPreservesOqdaAndView) {
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
  // reach the meta server from its OQDA, so it matches that address's view
  // and gets that view's answer, and each reply must come back *from* the
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
    const auto* a = std::get_if<dns::ARdata>(&reply->answers[0].rdata);
    ASSERT_NE(a, nullptr) << c.qname;
    EXPECT_EQ(a->address, c.want) << "answered from another view";
  }

  // The client can hold the reply before the shard thread has bumped its
  // counters (the datagram is queued mid-SendBatch, the Add comes after);
  // wait for the ledger to settle instead of racing it.
  WaitFor([&] { return (*relay)->TotalStats().responses_out >= 2; });
  RelayStats stats = (*relay)->TotalStats();
  EXPECT_EQ(stats.queries_in, 2u);
  EXPECT_EQ(stats.responses_out, 2u);
  EXPECT_EQ(stats.pending, 0) << "an answered query still holds its slot";

  // The same totals must be visible through the registry under proxy.*.
  stats::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("proxy.queries_in"), 2u);
  EXPECT_EQ(snapshot.CounterValue("proxy.responses_out"), 2u);
  EXPECT_EQ(snapshot.GaugeValue("proxy.pending"), stats.pending);
  EXPECT_NE(snapshot.Histogram("proxy.rewrite_ns"), nullptr);
  // The upstream socket counts its frames too: two queries out, two
  // replies in, on top of the ingress socket's two in and two out.
  EXPECT_EQ(snapshot.CounterValue("datapath.rx_frames"), 4u);
  EXPECT_EQ(snapshot.CounterValue("datapath.tx_frames"), 4u);

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
// held-slot gauge and the per-site load, over UDP and a TCP splice.
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

  // Fresh client sockets spread the queries across both shards.
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
  EXPECT_EQ(stats.pending, 0);
  EXPECT_EQ(stats.tcp_queries, 1u);
  ledger_check::ExpectViewMatchesSnapshot<kRelayLedger>(stats, snapshot);
  EXPECT_EQ(snapshot.GaugeValue("proxy.pending"), stats.pending);
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

// The upstream socket hears every local address at its port: a datagram
// from anyone but the meta server is not taken for an answer.
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

  // A third party sends a well-formed answer to the upstream socket.
  auto query = dns::Message::Decode(seen->wire);
  ASSERT_TRUE(query.ok());
  dns::Message forged = *query;
  forged.qr = true;
  UdpClient stranger;
  stranger.SendTo(seen->from, forged.Encode());
  EXPECT_TRUE(client.Recv(nullptr, 300).empty())
      << "a datagram from outside the meta server reached the client";
  EXPECT_EQ((*relay)->TotalStats().responses_in, 0u);
  EXPECT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().passed_through == 1;
  })) << "the stranger's datagram was not counted";

  // The meta server's own reply still goes through.
  meta.ReplyTo(*seen);
  EXPECT_FALSE(client.Recv(nullptr, 5000).empty());
  EXPECT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().responses_in == 1;
  }));
  (*relay)->Stop();
}

// Differential oracle: every query of a small split-horizon set, sent
// through the proxy, gets the reply the meta server gives the same query
// sent straight from a socket bound to the OQDA, byte for byte, ID
// included.
TEST(HierarchyProxyTest, ProxiedReplyIsByteIdenticalToTheDirectOne) {
  server::ShardedDnsServer::Config sconfig;
  sconfig.listen = Endpoint{IpAddress::Loopback(), 0};
  sconfig.n_shards = 1;
  sconfig.serve_tcp = false;
  auto meta = server::ShardedDnsServer::Start(SplitHorizonViews(), sconfig);
  ASSERT_TRUE(meta.ok()) << meta.error().ToString();

  RelayConfig config;
  config.addresses = {kNsA, kNsB};
  config.meta_server = (*meta)->endpoint();
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();

  UdpClient client;
  uint16_t id = 1000;
  for (IpAddress oqda : {kNsA, kNsB}) {
    UdpClient direct(oqda);
    for (const char* qname :
         {"www.a.test", "a.test", "x.y.b.test", "b.test", "other.test"}) {
      for (dns::RRType type :
           {dns::RRType::kA, dns::RRType::kNS, dns::RRType::kSOA,
            dns::RRType::kAAAA}) {
        auto message = dns::Message::MakeQuery(*dns::Name::Parse(qname),
                                               type, false);
        message.id = id++;
        const Bytes query = message.Encode();
        client.SendTo(Endpoint{oqda, (*relay)->port()}, query);
        const Bytes proxied = client.Recv();
        direct.SendTo((*meta)->endpoint(), query);
        const Bytes expected = direct.Recv();
        ASSERT_FALSE(expected.empty()) << qname;
        EXPECT_EQ(proxied, expected)
            << qname << " type " << static_cast<int>(type) << " via "
            << oqda.ToString();
      }
    }
  }
  (*relay)->Stop();
  (*meta)->Stop();
}

// Two clients send the same DNS ID to the same OQDA back to back: each
// query takes its own slot, so both are answered, each with its own ID.
TEST(HierarchyProxyTest, TwoClientsSharingAnIdAreBothAnswered) {
  ManualMeta meta;

  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = meta.endpoint();
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  const Endpoint service{kNsA, (*relay)->port()};

  UdpClient first;
  UdpClient second;
  first.SendTo(service, MakeQueryWire("first.a.test", 4242));
  second.SendTo(service, MakeQueryWire("second.a.test", 4242));
  auto seen_first = meta.Read();
  auto seen_second = meta.Read();
  ASSERT_TRUE(seen_first.has_value() && seen_second.has_value());
  EXPECT_NE(dns::Message::Decode(seen_first->wire)->id,
            dns::Message::Decode(seen_second->wire)->id)
      << "both queries reached the meta server under one ID";
  EXPECT_EQ(seen_first->from.addr, kNsA);
  EXPECT_EQ(seen_second->from, seen_first->from)
      << "one upstream socket carries both";

  // Answer in reverse order: the ID, not arrival order, finds the client.
  meta.ReplyTo(*seen_second);
  meta.ReplyTo(*seen_first);
  for (auto* client : {&first, &second}) {
    auto reply = dns::Message::Decode(client->Recv());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->id, 4242);
    ASSERT_EQ(reply->questions.size(), 1u);
    EXPECT_EQ(reply->questions[0].name,
              *dns::Name::Parse(client == &first ? "first.a.test"
                                                 : "second.a.test"));
  }
  (*relay)->Stop();
}

// A reply to a slot already answered, one from a stranger and one that
// reached another emulated address are each counted, and none reaches
// the client.
TEST(HierarchyProxyTest, MisdirectedRepliesAreCountedNotDelivered) {
  ManualMeta meta;

  RelayConfig config;
  config.addresses = {kNsA, kNsB};
  config.meta_server = meta.endpoint();
  config.splice_tcp = false;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();

  UdpClient client;
  client.SendTo(Endpoint{kNsA, (*relay)->port()},
                MakeQueryWire("late.a.test", 9));
  auto seen = meta.Read();
  ASSERT_TRUE(seen.has_value()) << "query never relayed";
  ASSERT_EQ(seen->from.addr, kNsA);

  // To the upstream port on the other emulated address: wrong OQDA.
  meta.ReplyTo(*seen, Endpoint{kNsB, seen->from.port});
  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().evicted_drops == 1;
  })) << "a reply to the wrong OQDA was not counted";

  // From a stranger, to the right address and port.
  auto query = dns::Message::Decode(seen->wire);
  ASSERT_TRUE(query.ok());
  dns::Message forged = *query;
  forged.qr = true;
  UdpClient stranger;
  stranger.SendTo(seen->from, forged.Encode());
  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().passed_through == 1;
  })) << "a stranger's reply was not counted";
  EXPECT_TRUE(client.Recv(nullptr, 200).empty());

  // The real reply frees the slot; the same reply again finds it free.
  meta.ReplyTo(*seen);
  EXPECT_FALSE(client.Recv(nullptr, 5000).empty());
  meta.ReplyTo(*seen);
  ASSERT_TRUE(WaitFor([&] {
    return (*relay)->TotalStats().evicted_drops == 2;
  })) << "a reply to a freed slot was not counted";
  EXPECT_TRUE(client.Recv(nullptr, 200).empty());

  const RelayStats stats = (*relay)->TotalStats();
  EXPECT_EQ(stats.responses_in, 1u);
  EXPECT_EQ(stats.responses_out, 1u);
  EXPECT_EQ(stats.pending, 0);
  (*relay)->Stop();
}

// One wrap of unanswered queries fills the ring; the next forward takes
// the oldest slot back and counts it. The held-slot gauge never passes
// the ring's size.
TEST(HierarchyProxyTest, UnansweredQueriesAreReclaimedAfterOneWrap) {
  ManualMeta meta;  // never reads, never answers

  stats::MetricsRegistry registry;
  RelayConfig config;
  config.addresses = {kNsA};
  config.meta_server = meta.endpoint();
  config.splice_tcp = false;
  config.metrics = &registry;
  auto relay = HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  const Endpoint service{kNsA, (*relay)->port()};

  constexpr uint64_t kRing = 65536;
  const Bytes query = MakeQueryWire("wrap.a.test", 1);
  UdpClient client;
  uint64_t sent = 0;
  // Small bursts, each read by the proxy before the next, so its receive
  // buffer never overflows; stop once one forward past a wrap went out.
  while ((*relay)->TotalStats().rewritten <= kRing) {
    for (int i = 0; i < 64; ++i) client.SendTo(service, query);
    sent += 64;
    for (int spins = 0;
         (*relay)->TotalStats().queries_in < sent && spins < 20000;
         ++spins) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ASSERT_LE((*relay)->TotalStats().pending, static_cast<int64_t>(kRing));
    ASSERT_LT(sent, 4 * kRing) << "the proxy stopped forwarding";
  }
  // A batch bumps rewritten after its SendBatch, past its other counters:
  // read the totals once the last batch is wholly counted.
  ASSERT_TRUE(WaitFor([&] {
    const RelayStats now = (*relay)->TotalStats();
    return now.rewritten + now.meta_send_errors == now.queries_in;
  }));
  const RelayStats stats = (*relay)->TotalStats();
  EXPECT_EQ(stats.meta_send_errors, 0u);
  EXPECT_GE(stats.reclaimed, 1u);
  EXPECT_EQ(stats.reclaimed, stats.rewritten - kRing);
  EXPECT_EQ(stats.pending, static_cast<int64_t>(kRing));
  EXPECT_EQ(registry.Snapshot().GaugeValue("proxy.pending"),
            static_cast<int64_t>(kRing));
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
  EXPECT_EQ(stats.pending, 0);
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
