#include <gtest/gtest.h>

#include "dns/framing.h"
#include "server/engine.h"
#include "server/sim_server.h"
#include "workload/hierarchy.h"
#include "zone/masterfile.h"

namespace ldp::server {
namespace {

zone::ZonePtr MakeZone(const char* text) {
  auto zone = zone::ParseMasterFile(text, zone::MasterFileOptions{});
  EXPECT_TRUE(zone.ok()) << (zone.ok() ? "" : zone.error().ToString());
  return std::make_shared<zone::Zone>(std::move(*zone));
}

// Serves `query` through the wire entry point and decodes the response.
dns::Message Ask(AuthServerEngine& engine, const dns::Message& query,
                 IpAddress source) {
  auto wire = engine.HandleWire(query.Encode(), source, 0);
  EXPECT_TRUE(wire.ok());
  auto response = dns::Message::Decode(*wire);
  EXPECT_TRUE(response.ok());
  return *response;
}

zone::ZonePtr ExampleZone() {
  return MakeZone(R"(
$ORIGIN example.com.
@ 3600 IN SOA ns1 admin 1 2 3 4 300
@ IN NS ns1
ns1 IN A 192.0.2.53
www IN A 192.0.2.1
)");
}

zone::ZonePtr OtherZone() {
  return MakeZone(R"(
$ORIGIN other.net.
@ 3600 IN SOA ns1 admin 1 2 3 4 300
@ IN NS ns1
ns1 IN A 192.0.2.99
www IN A 203.0.113.7
)");
}

TEST(Engine, AnswersFromDefaultView) {
  zone::ViewTable views;
  zone::ZoneSet set;
  ASSERT_TRUE(set.AddZone(ExampleZone()).ok());
  views.SetDefaultView(std::move(set));
  AuthServerEngine engine(std::move(views));

  auto query = dns::Message::MakeQuery(*dns::Name::Parse("www.example.com"),
                                       dns::RRType::kA, false);
  query.id = 5;
  dns::Message response = Ask(engine, query, IpAddress(10, 0, 0, 9));
  EXPECT_EQ(response.rcode, dns::Rcode::kNoError);
  ASSERT_EQ(response.answers.size(), 1u);
  EXPECT_EQ(engine.stats().queries, 1u);
}

TEST(Engine, SplitHorizonSelectsZoneBySource) {
  // The same qname must get different answers depending on the query
  // source — the meta-DNS-server property (paper §2.4).
  zone::ViewTable views;
  zone::ZoneSet view_a, view_b;
  // Both views serve a zone "conflict.test" with different data.
  auto zone_a = MakeZone(
      "$ORIGIN conflict.test.\n"
      "@ 60 IN SOA ns.a. h.a. 1 2 3 4 5\n"
      "@ IN NS ns.a.\n"
      "www IN A 1.1.1.1\n");
  auto zone_b = MakeZone(
      "$ORIGIN conflict.test.\n"
      "@ 60 IN SOA ns.b. h.b. 1 2 3 4 5\n"
      "@ IN NS ns.b.\n"
      "www IN A 2.2.2.2\n");
  ASSERT_TRUE(view_a.AddZone(zone_a).ok());
  ASSERT_TRUE(view_b.AddZone(zone_b).ok());
  ASSERT_TRUE(
      views.AddView("a", {IpAddress(198, 41, 0, 4)}, std::move(view_a)).ok());
  ASSERT_TRUE(
      views.AddView("b", {IpAddress(192, 5, 6, 30)}, std::move(view_b)).ok());
  AuthServerEngine engine(std::move(views));

  auto query = dns::Message::MakeQuery(*dns::Name::Parse("www.conflict.test"),
                                       dns::RRType::kA, false);
  auto from_a = Ask(engine, query, IpAddress(198, 41, 0, 4));
  auto from_b = Ask(engine, query, IpAddress(192, 5, 6, 30));
  ASSERT_EQ(from_a.answers.size(), 1u);
  ASSERT_EQ(from_b.answers.size(), 1u);
  EXPECT_EQ(std::get<dns::ARdata>(from_a.answers[0].rdata).address,
            IpAddress(1, 1, 1, 1));
  EXPECT_EQ(std::get<dns::ARdata>(from_b.answers[0].rdata).address,
            IpAddress(2, 2, 2, 2));

  // Unknown source falls to the (empty) default view: REFUSED.
  auto refused = Ask(engine, query, IpAddress(10, 1, 1, 1));
  EXPECT_EQ(refused.rcode, dns::Rcode::kRefused);
}

TEST(Engine, WireLevelTruncatesOverUdp) {
  zone::ViewTable views;
  zone::ZoneSet set;
  auto big = MakeZone(
      "$ORIGIN big.test.\n"
      "@ 60 IN SOA ns.big.test. h.big.test. 1 2 3 4 5\n"
      "@ IN NS ns.big.test.\n"
      "ns IN A 10.0.0.1\n");
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(big->AddRecord(dns::ResourceRecord{
        *dns::Name::Parse("fat.big.test"), dns::RRType::kTXT,
        dns::RRClass::kIN, 60,
        dns::TxtRdata{{std::string(50, 'x') + std::to_string(i)}}})
                    .ok());
  }
  ASSERT_TRUE(set.AddZone(big).ok());
  views.SetDefaultView(std::move(set));
  AuthServerEngine engine(std::move(views));

  // No EDNS: 512-byte limit applies.
  auto query = dns::Message::MakeQuery(*dns::Name::Parse("fat.big.test"),
                                       dns::RRType::kTXT, false);
  auto wire = engine.HandleWire(query.Encode(), IpAddress(10, 0, 0, 5), 65535);
  ASSERT_TRUE(wire.ok());
  EXPECT_LE(wire->size(), 512u);
  auto decoded = dns::Message::Decode(*wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->tc);
  EXPECT_EQ(engine.stats().truncated, 1u);

  // Stream transport (udp_limit = 0): full answer.
  auto stream_wire =
      engine.HandleWire(query.Encode(), IpAddress(10, 0, 0, 5), 0);
  ASSERT_TRUE(stream_wire.ok());
  auto stream_decoded = dns::Message::Decode(*stream_wire);
  ASSERT_TRUE(stream_decoded.ok());
  EXPECT_FALSE(stream_decoded->tc);
  EXPECT_EQ(stream_decoded->answers.size(), 80u);
}

TEST(Engine, DropsGarbage) {
  zone::ViewTable views;
  AuthServerEngine engine(std::move(views));
  Bytes garbage{1, 2, 3};
  EXPECT_FALSE(engine.HandleWire(garbage, IpAddress(1, 1, 1, 1), 0).ok());
  EXPECT_EQ(engine.stats().dropped, 1u);
}

class SimServerTest : public ::testing::Test {
 protected:
  SimServerTest() : net_(sim_) {
    net_.SetDefaultOneWayDelay(Millis(1));
    zone::ViewTable views;
    zone::ZoneSet set;
    EXPECT_TRUE(set.AddZone(ExampleZone()).ok());
    EXPECT_TRUE(set.AddZone(OtherZone()).ok());
    views.SetDefaultView(std::move(set));
    engine_ = std::make_shared<AuthServerEngine>(std::move(views));

    SimDnsServer::Config config;
    config.address = server_addr_;
    config.tcp_idle_timeout = Seconds(5);
    server_ = std::make_unique<SimDnsServer>(net_, engine_, config);
    EXPECT_TRUE(server_->Start().ok());
  }

  sim::Simulator sim_;
  sim::SimNetwork net_;
  IpAddress server_addr_{10, 0, 0, 1};
  IpAddress client_addr_{10, 0, 0, 2};
  std::shared_ptr<AuthServerEngine> engine_;
  std::unique_ptr<SimDnsServer> server_;
};

TEST_F(SimServerTest, AnswersUdp) {
  auto query = dns::Message::MakeQuery(*dns::Name::Parse("www.other.net"),
                                       dns::RRType::kA, false);
  query.id = 77;

  std::optional<dns::Message> response;
  ASSERT_TRUE(net_.ListenUdp(Endpoint{client_addr_, 4444},
                             [&](const sim::SimPacket& packet) {
                               auto decoded =
                                   dns::Message::Decode(packet.payload);
                               if (decoded.ok()) response = *decoded;
                             })
                  .ok());
  net_.SendUdp(Endpoint{client_addr_, 4444}, Endpoint{server_addr_, 53},
               query.Encode());
  sim_.Run();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, 77);
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(std::get<dns::ARdata>(response->answers[0].rdata).address,
            IpAddress(203, 0, 113, 7));
  EXPECT_EQ(server_->meters().queries_served(), 1u);
  EXPECT_GT(server_->meters().cpu_busy(), 0);
}

TEST_F(SimServerTest, AnswersTcpAndTimesOutIdleConnections) {
  sim::SimTcpStack client(net_, client_addr_);
  auto query = dns::Message::MakeQuery(*dns::Name::Parse("www.example.com"),
                                       dns::RRType::kA, false);
  query.id = 99;

  std::optional<dns::Message> response;
  auto assembler = std::make_shared<dns::StreamAssembler>();
  sim::ConnCallbacks callbacks;
  callbacks.on_established = [&query](sim::SimTcpConnection& conn) {
    conn.Send(std::move(dns::FrameMessage(query.Encode())).value());
  };
  callbacks.on_data = [&](sim::SimTcpConnection&,
                          std::span<const uint8_t> data) {
    ASSERT_TRUE(assembler->Feed(data).ok());
    if (auto wire = assembler->NextMessage()) {
      auto decoded = dns::Message::Decode(*wire);
      if (decoded.ok()) response = *decoded;
    }
  };
  bool closed = false;
  callbacks.on_close = [&](sim::SimTcpConnection&) { closed = true; };
  ASSERT_TRUE(client.Connect(Endpoint{server_addr_, 53}, callbacks,
                             /*tls=*/false)
                  .ok());
  sim_.RunUntil(Seconds(2));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, 99);
  EXPECT_EQ(server_->meters().established_connections(), 1u);

  // Idle timeout (5 s) closes it.
  sim_.RunUntil(Seconds(10));
  EXPECT_TRUE(closed);
  EXPECT_EQ(server_->meters().established_connections(), 0u);
  EXPECT_EQ(server_->meters().time_wait_connections(), 1u);
}

TEST_F(SimServerTest, AnswersTls) {
  sim::SimTcpStack client(net_, client_addr_);
  auto query = dns::Message::MakeQuery(*dns::Name::Parse("www.example.com"),
                                       dns::RRType::kA, false);
  query.id = 31;

  std::optional<dns::Message> response;
  NanoTime reply_time = 0;
  auto assembler = std::make_shared<dns::StreamAssembler>();
  sim::ConnCallbacks callbacks;
  callbacks.on_established = [&query](sim::SimTcpConnection& conn) {
    conn.Send(std::move(dns::FrameMessage(query.Encode())).value());
  };
  callbacks.on_data = [&](sim::SimTcpConnection&,
                          std::span<const uint8_t> data) {
    ASSERT_TRUE(assembler->Feed(data).ok());
    if (auto wire = assembler->NextMessage()) {
      auto decoded = dns::Message::Decode(*wire);
      if (decoded.ok()) {
        response = *decoded;
        reply_time = sim_.Now();
      }
    }
  };
  ASSERT_TRUE(client
                  .Connect(Endpoint{server_addr_, 853}, callbacks,
                           /*tls=*/true)
                  .ok());
  sim_.RunUntil(Seconds(2));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, 31);
  // Fresh TLS query: 4 RTT at 2 ms RTT = 8 ms.
  EXPECT_EQ(reply_time, Millis(8));
  EXPECT_EQ(server_->meters().tls_sessions(), 1u);
}

}  // namespace
}  // namespace ldp::server
