// Scenario engine (src/scenario/) + attack generators (src/mutate/attack.h)
// + anycast catchment (src/proxy/catchment.h): the pieces the scenario pack
// composes. Pure-logic checks (generator properties, mask/outcome splits,
// catchment routing) plus two real-socket checks: per-site counter
// attribution with injected reply RTT, and a spoofed flood through the
// proxy's ID ring.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <unordered_set>

#include "dns/message.h"
#include "mutate/attack.h"
#include "proxy/catchment.h"
#include "proxy/relay.h"
#include "scenario/scenario.h"
#include "server/sharded_server.h"
#include "workload/hierarchy.h"
#include "zone/masterfile.h"

namespace ldp {
namespace {

// --- Attack generators ------------------------------------------------------

TEST(AttackTraceTest, NxdomainFloodQnamesAreUniqueAndSpoofed) {
  mutate::AttackConfig config;
  config.kind = mutate::AttackKind::kNxdomainFlood;
  config.rate_qps = 2000;
  config.duration = Seconds(1);
  config.start = Millis(500);
  config.server = IpAddress(198, 41, 0, 4);
  auto records = mutate::MakeAttackTrace(config);
  ASSERT_EQ(records.size(), 2000u);

  std::unordered_set<std::string> qnames;
  NanoTime prev = 0;
  for (const auto& record : records) {
    qnames.insert(record.qname.ToString());
    EXPECT_TRUE(mutate::IsSpoofedSource(record.src));
    EXPECT_EQ(record.dst, config.server);
    EXPECT_GE(record.timestamp, prev);
    EXPECT_GE(record.timestamp, config.start);
    EXPECT_LE(record.timestamp, config.start + config.duration);
    prev = record.timestamp;
  }
  // Every qname distinct — a resolver or response cache can never hit.
  EXPECT_EQ(qnames.size(), records.size());
}

TEST(AttackTraceTest, AmplificationQueriesCarryDnssecShape) {
  mutate::AttackConfig config;
  config.kind = mutate::AttackKind::kAmplification;
  config.rate_qps = 100;
  config.duration = Seconds(1);
  auto records = mutate::MakeAttackTrace(config);
  ASSERT_EQ(records.size(), 100u);
  bool saw_any = false, saw_dnskey = false;
  for (const auto& record : records) {
    EXPECT_TRUE(record.edns);
    EXPECT_TRUE(record.do_bit);
    EXPECT_EQ(record.udp_payload_size, 4096);
    saw_any |= record.qtype == dns::RRType::kANY;
    saw_dnskey |= record.qtype == dns::RRType::kDNSKEY;
  }
  EXPECT_TRUE(saw_any);
  EXPECT_TRUE(saw_dnskey);
}

TEST(AttackTraceTest, SpoofedFloodCyclesBoundedSourcePool) {
  mutate::AttackConfig config;
  config.kind = mutate::AttackKind::kSpoofedFlood;
  config.rate_qps = 500;
  config.duration = Seconds(1);
  config.n_sources = 16;
  auto records = mutate::MakeAttackTrace(config);
  ASSERT_EQ(records.size(), 500u);
  std::unordered_set<IpAddress> sources;
  for (const auto& record : records) {
    EXPECT_TRUE(mutate::IsSpoofedSource(record.src));
    sources.insert(record.src);
  }
  EXPECT_EQ(sources.size(), 16u);
}

TEST(AttackTraceTest, OverlayMergesByTimestampAndMasksAttack) {
  std::vector<trace::QueryRecord> base(3);
  base[0].timestamp = 0;
  base[1].timestamp = 100;
  base[2].timestamp = 200;
  std::vector<trace::QueryRecord> attack(2);
  attack[0].timestamp = 50;
  attack[0].src = mutate::kSpoofedSourceBase;
  attack[1].timestamp = 150;
  attack[1].src = mutate::kSpoofedSourceBase;

  auto mask = mutate::OverlayAttack(base, std::move(attack));
  ASSERT_EQ(base.size(), 5u);
  ASSERT_EQ(mask.size(), 5u);
  NanoTime prev = 0;
  for (const auto& record : base) {
    EXPECT_GE(record.timestamp, prev);
    prev = record.timestamp;
  }
  std::vector<bool> expected = {false, true, false, true, false};
  EXPECT_EQ(mask, expected);
}

// --- Outcome split ----------------------------------------------------------

TEST(ScenarioTest, SplitOutcomesSeparatesClassesByMask) {
  replay::RealtimeReport report;
  // Outcome i is trace record i.
  auto add = [&](bool answered, NanoDuration latency) {
    replay::SendOutcome outcome;
    outcome.sent = Millis(10);
    if (answered) {
      outcome.replied = outcome.sent + latency;
      outcome.state = replay::SendOutcome::State::kAnswered;
    } else {
      outcome.state = replay::SendOutcome::State::kTimedOut;
    }
    report.sends.AppendChunk(1).front() = outcome;
  };
  add(true, Millis(2));   // 0: legit
  add(true, Millis(4));   // 1: attack
  add(false, 0);          // 2: legit, timed out
  add(true, Millis(6));   // 3: attack
  std::vector<bool> mask = {false, true, false, true};

  auto split = scenario::SplitOutcomes(report, mask);
  EXPECT_EQ(split.legit.sent, 2u);
  EXPECT_EQ(split.legit.answered, 1u);
  EXPECT_EQ(split.legit.timed_out, 1u);
  EXPECT_DOUBLE_EQ(split.legit.answered_rate(), 0.5);
  EXPECT_NEAR(split.legit.latency_p50_ms, 2.0, 0.01);
  EXPECT_EQ(split.attack.sent, 2u);
  EXPECT_EQ(split.attack.answered, 2u);
  EXPECT_NEAR(split.attack.latency_p99_ms, 6.0, 0.01);
}

// --- Amplification ----------------------------------------------------------

TEST(ScenarioTest, SignedZoneAmplifiesWellBeyondUnsigned) {
  mutate::AttackConfig config;
  config.kind = mutate::AttackKind::kAmplification;
  config.rate_qps = 50;
  config.duration = Seconds(1);
  auto records = mutate::MakeAttackTrace(config);

  auto factor_for = [&](bool sign) {
    auto hierarchy = workload::BuildRootHierarchy(5, sign, zone::DnssecConfig{});
    zone::ZoneSet zones;
    EXPECT_TRUE(zones.AddZone(hierarchy.root).ok());
    zone::ViewTable views;
    views.SetDefaultView(std::move(zones));
    server::AuthServerEngine engine(std::move(views));
    auto amp = scenario::ComputeAmplification(engine, records);
    EXPECT_EQ(amp.queries, records.size());
    EXPECT_GT(amp.query_bytes, 0u);
    return amp.factor();
  };
  double signed_factor = factor_for(true);
  double unsigned_factor = factor_for(false);
  EXPECT_GT(signed_factor, 5.0);
  EXPECT_GT(signed_factor, unsigned_factor);
}

// --- Catchment map ----------------------------------------------------------

TEST(CatchmentTest, LongestPrefixWinsAndDefaultCatchesTheRest) {
  proxy::CatchmentMap map;
  ASSERT_TRUE(map.AddRoute(IpAddress(10, 0, 0, 0), 8, 1).ok());
  ASSERT_TRUE(map.AddRoute(IpAddress(10, 1, 0, 0), 16, 2).ok());
  map.SetDefaultSite(0);
  EXPECT_EQ(map.Lookup(IpAddress(10, 1, 2, 3)), 2u);   // /16 beats /8
  EXPECT_EQ(map.Lookup(IpAddress(10, 2, 0, 1)), 1u);
  EXPECT_EQ(map.Lookup(IpAddress(192, 168, 0, 1)), 0u);  // default
}

TEST(CatchmentTest, ParsesSiteSpecsAndRoutesText) {
  auto sites = proxy::ParseSiteSpecs("lax:0,mia:25");
  ASSERT_TRUE(sites.ok()) << sites.error().ToString();
  ASSERT_EQ(sites->size(), 2u);
  EXPECT_EQ((*sites)[0].name, "lax");
  EXPECT_EQ((*sites)[1].rtt, Millis(25));
  EXPECT_FALSE(proxy::ParseSiteSpecs("lax:0,lax:5").ok());

  auto map = proxy::CatchmentMap::Parse(
      "# client groups\n"
      "route 127.61.0.0/16 mia\n"
      "default lax\n",
      *sites);
  ASSERT_TRUE(map.ok()) << map.error().ToString();
  EXPECT_EQ(map->route_count(), 1u);
  EXPECT_EQ(map->Lookup(IpAddress(127, 61, 4, 4)), 1u);
  EXPECT_EQ(map->Lookup(IpAddress(127, 99, 0, 1)), 0u);
  EXPECT_FALSE(proxy::CatchmentMap::Parse("route 1.2.3.0/24 ams\n", *sites)
                   .ok());  // unknown site
  EXPECT_FALSE(proxy::CatchmentMap::Parse("route 1.2.3.0/40 lax\n", *sites)
                   .ok());  // bad prefix length
}

// --- Real sockets: per-site attribution + spoofed churn ---------------------

const IpAddress kNs(127, 53, 0, 10);

sockaddr_in SockAddr(IpAddress addr, uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(addr.value());
  return sa;
}

// Blocking UDP client bound to a chosen 127/8 source address, so the
// proxy's catchment map can route it.
class BoundClient {
 public:
  explicit BoundClient(IpAddress local) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    EXPECT_GE(fd_, 0);
    timeval tv{.tv_sec = 5, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in sa = SockAddr(local, 0);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  }
  ~BoundClient() { ::close(fd_); }

  void SendTo(Endpoint dst, const Bytes& wire) {
    sockaddr_in sa = SockAddr(dst.addr, dst.port);
    EXPECT_EQ(::sendto(fd_, wire.data(), wire.size(), 0,
                       reinterpret_cast<sockaddr*>(&sa), sizeof(sa)),
              static_cast<ssize_t>(wire.size()));
  }

  Bytes Recv() {
    uint8_t buf[65536];
    ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
    return got <= 0 ? Bytes{} : Bytes(buf, buf + got);
  }

 private:
  int fd_ = -1;
};

std::shared_ptr<const zone::ViewTable> WildcardViews() {
  auto zone = zone::ParseMasterFile(
      "$ORIGIN a.test.\n"
      "@ 3600 IN SOA ns1 admin 1 2 3 4 300\n"
      "@ IN NS ns1\n"
      "ns1 IN A 192.0.2.53\n"
      "* IN A 192.0.2.1\n",
      zone::MasterFileOptions{});
  EXPECT_TRUE(zone.ok());
  zone::ZoneSet set;
  EXPECT_TRUE(set.AddZone(std::make_shared<zone::Zone>(std::move(*zone))).ok());
  zone::ViewTable views;
  views.SetDefaultView(std::move(set));
  return std::make_shared<const zone::ViewTable>(std::move(views));
}

Bytes QueryWire(const std::string& qname) {
  auto query = dns::Message::MakeQuery(*dns::Name::Parse(qname),
                                       dns::RRType::kA, false);
  query.id = 7;
  return query.Encode();
}

TEST(CatchmentTest, ProxyAttributesQueriesToSitesAndInjectsRtt) {
  server::ShardedDnsServer::Config sconfig;
  sconfig.listen = Endpoint{IpAddress::Loopback(), 0};
  sconfig.n_shards = 1;
  sconfig.serve_tcp = false;
  auto meta = server::ShardedDnsServer::Start(WildcardViews(), sconfig);
  ASSERT_TRUE(meta.ok()) << meta.error().ToString();

  proxy::RelayConfig config;
  config.addresses = {kNs};
  config.meta_server = (*meta)->endpoint();
  config.splice_tcp = false;
  config.sites = {{"near", 0}, {"far", Millis(40)}};
  proxy::CatchmentMap catchment;
  ASSERT_TRUE(catchment.AddRoute(IpAddress(127, 62, 0, 0), 16, 1).ok());
  catchment.SetDefaultSite(0);
  config.catchment = std::move(catchment);
  auto relay = proxy::HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  Endpoint service{kNs, (*relay)->port()};

  // Near client: default site, reply arrives promptly.
  BoundClient near_client(IpAddress(127, 61, 0, 9));
  near_client.SendTo(service, QueryWire("x.a.test"));
  EXPECT_FALSE(near_client.Recv().empty());

  // Far client: catchment routes 127.62/16 to the 40 ms site; the reply
  // is held on a proxy loop timer, so it cannot arrive sooner.
  BoundClient far_client(IpAddress(127, 62, 0, 9));
  auto t0 = std::chrono::steady_clock::now();
  far_client.SendTo(service, QueryWire("y.a.test"));
  EXPECT_FALSE(far_client.Recv().empty());
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  EXPECT_GE(elapsed, 35);

  // The per-site response counter ticks after the send syscall, so the
  // client can hear the reply a beat before the counter is visible.
  for (int waited = 0;
       waited < 1000 && (*relay)->TotalStats().sites[1].responses_out < 1;
       waited += 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  proxy::RelayStats stats = (*relay)->TotalStats();
  ASSERT_EQ(stats.sites.size(), 2u);
  EXPECT_EQ(stats.sites[0].name, "near");
  EXPECT_EQ(stats.sites[0].queries_in, 1u);
  EXPECT_EQ(stats.sites[0].responses_out, 1u);
  EXPECT_EQ(stats.sites[1].name, "far");
  EXPECT_EQ(stats.sites[1].queries_in, 1u);
  EXPECT_EQ(stats.sites[1].responses_out, 1u);
  (*relay)->Stop();
  (*meta)->Stop();
}

// A spoofed-source flood costs the proxy ring slots, not per-client
// state: the flood's replies come back to its rotating sockets, a legit
// query beside it is answered, and the held slots stay within the ring.
TEST(ScenarioTest, SpoofedFloodIsAnsweredBesideLegitTraffic) {
  server::ShardedDnsServer::Config sconfig;
  sconfig.listen = Endpoint{IpAddress::Loopback(), 0};
  sconfig.n_shards = 1;
  sconfig.serve_tcp = false;
  auto meta = server::ShardedDnsServer::Start(WildcardViews(), sconfig);
  ASSERT_TRUE(meta.ok()) << meta.error().ToString();

  proxy::RelayConfig config;
  config.addresses = {kNs};
  config.meta_server = (*meta)->endpoint();
  config.splice_tcp = false;
  auto relay = proxy::HierarchyProxy::Start(config);
  ASSERT_TRUE(relay.ok()) << relay.error().ToString();
  const Endpoint service{kNs, (*relay)->port()};

  scenario::SpoofedFloodConfig flood;
  flood.target = service;
  flood.query_wire = QueryWire("flood.a.test");
  flood.rate_qps = 2000;
  flood.duration = Millis(500);
  flood.n_sockets = 8;
  flood.rotate_after_sends = 2;
  Result<scenario::SpoofedFloodReport> report =
      Error(ErrorCode::kInternal, "flood never ran");
  std::thread flooder([&] { report = scenario::RunSpoofedFlood(flood); });

  // A legit client queries while the flood runs.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  BoundClient legit(IpAddress(127, 61, 0, 9));
  legit.SendTo(service, QueryWire("legit.a.test"));
  const Bytes answer = legit.Recv();
  flooder.join();
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  ASSERT_FALSE(answer.empty()) << "the legit query beside the flood was lost";
  auto reply = dns::Message::Decode(answer);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->rcode, dns::Rcode::kNoError);

  // Every rotation is a fresh ephemeral port = a fresh client endpoint.
  EXPECT_GT(report->sent, 500u);
  EXPECT_GE(report->sockets_opened, report->sent / flood.rotate_after_sends);
  EXPECT_GT(report->replies, 0u) << "the flood's replies never came back";

  const proxy::RelayStats stats = (*relay)->TotalStats();
  EXPECT_GE(stats.responses_out, report->replies);
  EXPECT_GE(stats.pending, 0);
  EXPECT_LE(stats.pending, 65536);
  EXPECT_EQ(stats.reclaimed, 0u) << "no wrap at this size";
  (*relay)->Stop();
  (*meta)->Stop();
}

}  // namespace
}  // namespace ldp
