// ShardedDnsServer: N worker threads behind one SO_REUSEPORT address must
// answer like a single server, and the aggregate stats snapshot must equal
// the sum of the per-shard snapshots (each engine is private: no query is
// ever double-counted or lost) and the registry the shards count into.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "ledger_check.h"
#include "server/sharded_server.h"
#include "zone/masterfile.h"

namespace ldp::server {
namespace {

std::shared_ptr<const zone::ViewTable> MakeViews() {
  auto zone = zone::ParseMasterFile(R"(
$ORIGIN example.com.
@ 3600 IN SOA ns1 admin 1 2 3 4 300
@ IN NS ns1
ns1 IN A 192.0.2.53
www IN A 192.0.2.1
)",
                                    zone::MasterFileOptions{});
  EXPECT_TRUE(zone.ok());
  zone::ZoneSet set;
  EXPECT_TRUE(
      set.AddZone(std::make_shared<zone::Zone>(std::move(*zone))).ok());
  zone::ViewTable views;
  views.SetDefaultView(std::move(set));
  return std::make_shared<const zone::ViewTable>(std::move(views));
}

// A minimal blocking UDP client: its own socket per call, so queries
// spread across the reuseport shards by source port. `replier`, when set,
// receives the reply's source.
Bytes Exchange(Endpoint server, const Bytes& query,
               Endpoint* replier = nullptr) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port);
  addr.sin_addr.s_addr = htonl(server.addr.value());
  EXPECT_EQ(::sendto(fd, query.data(), query.size(), 0,
                     reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            static_cast<ssize_t>(query.size()));
  uint8_t buf[65536];
  sockaddr_in from{};
  socklen_t from_len = sizeof(from);
  ssize_t got = ::recvfrom(fd, buf, sizeof(buf), 0,
                           reinterpret_cast<sockaddr*>(&from), &from_len);
  ::close(fd);
  EXPECT_GT(got, 0) << "no reply within timeout";
  if (got <= 0) return {};
  if (replier != nullptr) {
    *replier = Endpoint{IpAddress(ntohl(from.sin_addr.s_addr)),
                        ntohs(from.sin_port)};
  }
  return Bytes(buf, buf + got);
}

// No registry passed: each shard counts into a private one.
TEST(ShardedServer, AnswersAcrossShardsAndAggregatesStats) {
  ShardedDnsServer::Config config;
  config.listen = Endpoint{IpAddress::Loopback(), 0};
  config.n_shards = 4;
  config.serve_tcp = false;
  config.engine.response_cache_entries = 64;
  auto server = ShardedDnsServer::Start(MakeViews(), config);
  ASSERT_TRUE(server.ok()) << server.error().ToString();
  EXPECT_EQ((*server)->n_shards(), 4u);
  EXPECT_NE((*server)->endpoint().port, 0);  // ephemeral port resolved

  const int kQueries = 48;
  for (int i = 0; i < kQueries; ++i) {
    auto query = dns::Message::MakeQuery(*dns::Name::Parse("www.example.com"),
                                         dns::RRType::kA, false);
    query.id = static_cast<uint16_t>(1000 + i);
    Bytes reply_wire = Exchange((*server)->endpoint(), query.Encode());
    ASSERT_FALSE(reply_wire.empty());
    auto reply = dns::Message::Decode(reply_wire);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->id, query.id);
    EXPECT_TRUE(reply->qr);
    EXPECT_EQ(reply->rcode, dns::Rcode::kNoError);
    ASSERT_EQ(reply->answers.size(), 1u);
  }

  // Every query was counted exactly once, and the aggregate equals the
  // sum of the per-shard snapshots.
  EngineStats total = (*server)->TotalStats();
  EXPECT_EQ(total.queries, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(total.responses, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(total.cache_hits + total.cache_misses,
            static_cast<uint64_t>(kQueries));

  ledger_check::ExpectLedgerFieldsEqual<kEngineLedger>(
      ledger_check::SumOverLedger<kEngineLedger>((*server)->ShardStats()),
      total);

  (*server)->Stop();
  (*server)->Stop();  // idempotent
  EXPECT_EQ((*server)->TotalStats().queries, total.queries);
}

// A blocking TCP client holding its connection open; one framed query
// exchange per call.
class TcpClient {
 public:
  explicit TcpClient(Endpoint server) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{.tv_sec = 5, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port);
    addr.sin_addr.s_addr = htonl(server.addr.value());
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return fd_ >= 0; }

  // Sends one length-framed query and reads one length-framed reply;
  // empty on EOF or timeout.
  Bytes Exchange(const Bytes& query) {
    Bytes framed;
    framed.push_back(static_cast<uint8_t>(query.size() >> 8));
    framed.push_back(static_cast<uint8_t>(query.size()));
    framed.insert(framed.end(), query.begin(), query.end());
    if (::send(fd_, framed.data(), framed.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(framed.size())) {
      return {};
    }
    uint8_t len_buf[2];
    if (!ReadExact(len_buf, 2)) return {};
    size_t len = (static_cast<size_t>(len_buf[0]) << 8) | len_buf[1];
    Bytes reply(len);
    if (!ReadExact(reply.data(), len)) return {};
    return reply;
  }

  // True when the server has closed this connection (EOF observed).
  bool WaitForEof() {
    uint8_t byte;
    ssize_t got = ::recv(fd_, &byte, 1, 0);
    return got == 0;
  }

 private:
  bool ReadExact(uint8_t* out, size_t n) {
    size_t have = 0;
    while (have < n) {
      ssize_t got = ::recv(fd_, out + have, n - have, 0);
      if (got <= 0) return false;
      have += static_cast<size_t>(got);
    }
    return true;
  }

  int fd_ = -1;
};

TEST(ShardedServer, TcpAcceptsSpreadAcrossShards) {
  ShardedDnsServer::Config config;
  config.listen = Endpoint{IpAddress::Loopback(), 0};
  config.n_shards = 2;
  auto server = ShardedDnsServer::Start(MakeViews(), config);
  ASSERT_TRUE(server.ok()) << server.error().ToString();

  // 64 concurrent connections from distinct ephemeral ports: the kernel's
  // 4-tuple hash puts some on each SO_REUSEPORT listener. (The chance of
  // 64 independent picks all landing on one of two shards is 2^-63.)
  const size_t kConns = 64;
  std::vector<std::unique_ptr<TcpClient>> clients;
  for (size_t i = 0; i < kConns; ++i) {
    auto client = std::make_unique<TcpClient>((*server)->endpoint());
    ASSERT_TRUE(client->connected());
    auto query = dns::Message::MakeQuery(
        *dns::Name::Parse("www.example.com"), dns::RRType::kA, false);
    query.id = static_cast<uint16_t>(i + 1);
    Bytes reply = client->Exchange(query.Encode());
    ASSERT_FALSE(reply.empty());
    clients.push_back(std::move(client));
  }

  TcpStats total = (*server)->TotalTcpStats();
  EXPECT_EQ(total.accepted, kConns);
  EXPECT_EQ(total.open, kConns);
  EXPECT_EQ(total.rejected, 0u);
  std::vector<TcpStats> per_shard = (*server)->ShardTcpStats();
  ASSERT_EQ(per_shard.size(), 2u);
  for (size_t i = 0; i < per_shard.size(); ++i) {
    EXPECT_GT(per_shard[i].accepted, 0u)
        << "shard " << i << " accepted nothing: TCP accept is pinned";
  }
}

// Every field of the views equals the same-named cells in the registry
// the shards count into, while the shards still run; and the per-shard
// views sum to the totals.
TEST(ShardedServer, LedgerViewsEqualTheRegistryWhileServing) {
  stats::MetricsRegistry registry;
  ShardedDnsServer::Config config;
  config.listen = Endpoint{IpAddress::Loopback(), 0};
  config.n_shards = 2;
  config.engine.response_cache_entries = 64;
  config.metrics = &registry;
  auto server = ShardedDnsServer::Start(MakeViews(), config);
  ASSERT_TRUE(server.ok()) << server.error().ToString();

  // UDP: answers, repeats (cache hits), NXDOMAIN and a zone it lacks
  // (REFUSED). Each shard counts a query before its reply leaves, so the
  // cells are settled once every reply is in.
  const char* kNames[] = {"www.example.com", "ns1.example.com",
                          "nope.example.com", "www.example.org"};
  uint16_t id = 1;
  for (int round = 0; round < 6; ++round) {
    for (const char* name : kNames) {
      auto query = dns::Message::MakeQuery(*dns::Name::Parse(name),
                                           dns::RRType::kA, false);
      query.id = id++;
      ASSERT_FALSE(Exchange((*server)->endpoint(), query.Encode()).empty());
    }
  }
  // TCP: connections held open, so the open-connection gauge reads them.
  std::vector<std::unique_ptr<TcpClient>> clients;
  for (int i = 0; i < 8; ++i) {
    auto client = std::make_unique<TcpClient>((*server)->endpoint());
    ASSERT_TRUE(client->connected());
    auto query = dns::Message::MakeQuery(
        *dns::Name::Parse("www.example.com"), dns::RRType::kA, false);
    query.id = id++;
    ASSERT_FALSE(client->Exchange(query.Encode()).empty());
    clients.push_back(std::move(client));
  }

  const EngineStats total = (*server)->TotalStats();
  const TcpStats tcp = (*server)->TotalTcpStats();
  const stats::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(total.queries, 6u * 4 + 8);
  EXPECT_EQ(total.nxdomain, 6u);
  EXPECT_EQ(total.refused, 6u);
  EXPECT_GT(total.cache_hits, 0u);
  EXPECT_EQ(tcp.accepted, 8u);
  EXPECT_EQ(tcp.open, 8u);
  ledger_check::ExpectViewMatchesSnapshot<kEngineLedger>(total, snapshot);
  ledger_check::ExpectViewMatchesSnapshot<kTcpLedger>(tcp, snapshot);
  ledger_check::ExpectLedgerFieldsEqual<kEngineLedger>(
      ledger_check::SumOverLedger<kEngineLedger>((*server)->ShardStats()),
      total);
  ledger_check::ExpectLedgerFieldsEqual<kTcpLedger>(
      ledger_check::SumOverLedger<kTcpLedger>((*server)->ShardTcpStats()),
      tcp);
  // No TLS lane, so none of its names are registered.
  for (const auto& [name, value] : snapshot.counters) {
    EXPECT_NE(name.rfind("tls.", 0), 0u) << name;
  }

  // The cells outlive Stop() for the final snapshot.
  clients.clear();
  (*server)->Stop();
  EXPECT_EQ(registry.Snapshot().CounterValue("server.queries"),
            total.queries);
}

TEST(ShardedServer, ConnectionCapRejectsThenIdleEvictionReadmits) {
  ShardedDnsServer::Config config;
  config.listen = Endpoint{IpAddress::Loopback(), 0};
  config.n_shards = 1;
  config.max_tcp_connections = 4;
  config.tcp_idle_timeout = Millis(200);
  auto server = ShardedDnsServer::Start(MakeViews(), config);
  ASSERT_TRUE(server.ok()) << server.error().ToString();

  // Fill the table. Each exchange proves the connection was admitted.
  std::vector<std::unique_ptr<TcpClient>> held;
  for (size_t i = 0; i < 4; ++i) {
    auto client = std::make_unique<TcpClient>((*server)->endpoint());
    ASSERT_TRUE(client->connected());
    auto query = dns::Message::MakeQuery(
        *dns::Name::Parse("www.example.com"), dns::RRType::kA, false);
    query.id = static_cast<uint16_t>(i + 1);
    ASSERT_FALSE(client->Exchange(query.Encode()).empty());
    held.push_back(std::move(client));
  }

  // One over the cap: the TCP connect completes (kernel backlog), but the
  // server closes it on accept — the client observes an immediate EOF.
  TcpClient over((*server)->endpoint());
  ASSERT_TRUE(over.connected());
  EXPECT_TRUE(over.WaitForEof());
  EXPECT_GE((*server)->TotalTcpStats().rejected, 1u);

  // Idle eviction drains the table (nothing inflight, 200ms timeout) and
  // resumes the paused listener.
  for (auto& client : held) EXPECT_TRUE(client->WaitForEof());
  held.clear();
  TcpStats after = (*server)->TotalTcpStats();
  EXPECT_EQ(after.idle_closed, 4u);
  EXPECT_EQ(after.open, 0u);

  // Below the cap again: a fresh connection is served end to end.
  TcpClient fresh((*server)->endpoint());
  ASSERT_TRUE(fresh.connected());
  auto query = dns::Message::MakeQuery(*dns::Name::Parse("ns1.example.com"),
                                       dns::RRType::kA, false);
  query.id = 99;
  EXPECT_FALSE(fresh.Exchange(query.Encode()).empty());
}

TEST(ShardedServer, SingleShardServesTcpAndUdp) {
  ShardedDnsServer::Config config;
  config.listen = Endpoint{IpAddress::Loopback(), 0};
  config.n_shards = 1;
  auto server = ShardedDnsServer::Start(MakeViews(), config);
  ASSERT_TRUE(server.ok()) << server.error().ToString();

  auto query = dns::Message::MakeQuery(*dns::Name::Parse("ns1.example.com"),
                                       dns::RRType::kA, false);
  query.id = 7;
  Bytes reply_wire = Exchange((*server)->endpoint(), query.Encode());
  ASSERT_FALSE(reply_wire.empty());
  auto reply = dns::Message::Decode(reply_wire);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->rcode, dns::Rcode::kNoError);
  EXPECT_EQ((*server)->TotalStats().queries, 1u);
}

// A server bound to the unspecified address answers from the address each
// query targeted, not from whatever source the kernel would pick for the
// reply's route (127.0.0.1 on loopback).
TEST(ShardedServer, WildcardServerAnswersFromTheQueriedAddress) {
  ShardedDnsServer::Config config;
  config.listen = Endpoint{IpAddress(), 0};
  config.n_shards = 2;
  config.serve_tcp = false;
  auto server = ShardedDnsServer::Start(MakeViews(), config);
  ASSERT_TRUE(server.ok()) << server.error().ToString();

  const Endpoint queried{IpAddress(127, 9, 9, 9), (*server)->endpoint().port};
  for (uint16_t id = 1; id <= 8; ++id) {  // fresh source ports: both shards
    auto query = dns::Message::MakeQuery(
        *dns::Name::Parse("www.example.com"), dns::RRType::kA, false);
    query.id = id;
    Endpoint replier;
    Bytes reply_wire = Exchange(queried, query.Encode(), &replier);
    ASSERT_FALSE(reply_wire.empty());
    EXPECT_EQ(replier, queried) << "query " << id;
  }
  EXPECT_EQ((*server)->TotalStats().queries, 8u);
}

}  // namespace
}  // namespace ldp::server
