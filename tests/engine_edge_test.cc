// Edge cases of the authoritative engine: opcode handling, AXFR across
// split-horizon views, empty questions, stats accounting.
#include <gtest/gtest.h>

#include "server/engine.h"
#include "zone/masterfile.h"

namespace ldp::server {
namespace {

zone::ZonePtr MakeZone(const std::string& origin_label) {
  std::string text = "$ORIGIN " + origin_label +
                     ".\n@ 60 IN SOA ns1 admin 1 2 3 4 5\n@ IN NS ns1\n"
                     "ns1 IN A 192.0.2.1\nwww IN A 192.0.2.2\n";
  auto zone = zone::ParseMasterFile(text, zone::MasterFileOptions{});
  EXPECT_TRUE(zone.ok());
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

TEST(EngineEdge, NonQueryOpcodeGetsNotImp) {
  zone::ViewTable views;
  zone::ZoneSet set;
  ASSERT_TRUE(set.AddZone(MakeZone("a")).ok());
  views.SetDefaultView(std::move(set));
  AuthServerEngine engine(std::move(views));

  auto query = dns::Message::MakeQuery(*dns::Name::Parse("www.a"),
                                       dns::RRType::kA, false);
  query.opcode = dns::Opcode::kUpdate;
  auto response = Ask(engine, query, IpAddress(1, 1, 1, 1));
  EXPECT_EQ(response.rcode, dns::Rcode::kNotImp);
}

TEST(EngineEdge, EmptyQuestionRefusedGracefully) {
  zone::ViewTable views;
  AuthServerEngine engine(std::move(views));
  dns::Message query;
  query.id = 3;
  auto response = Ask(engine, query, IpAddress(1, 1, 1, 1));
  EXPECT_TRUE(response.qr);
  EXPECT_EQ(response.id, 3);
  EXPECT_EQ(response.rcode, dns::Rcode::kRefused);
}

TEST(EngineEdge, AxfrRespectsSplitHorizon) {
  // Zone "secret" is only in the view for 10.0.0.5; AXFR from another
  // source must NOTAUTH even though the zone exists on the server.
  zone::ViewTable views;
  zone::ZoneSet member_view;
  ASSERT_TRUE(member_view.AddZone(MakeZone("secret")).ok());
  ASSERT_TRUE(
      views.AddView("members", {IpAddress(10, 0, 0, 5)}, std::move(member_view))
          .ok());
  AuthServerEngine engine(std::move(views));

  dns::Message axfr;
  axfr.id = 11;
  axfr.questions.push_back(dns::Question{*dns::Name::Parse("secret"),
                                         dns::RRType::kAXFR,
                                         dns::RRClass::kIN});

  auto allowed = engine.HandleAxfr(axfr, IpAddress(10, 0, 0, 5));
  ASSERT_TRUE(allowed.ok());
  ASSERT_GE(allowed->size(), 1u);
  auto first = dns::Message::Decode(allowed->front());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->rcode, dns::Rcode::kNoError);
  EXPECT_FALSE(first->answers.empty());
  EXPECT_EQ(first->answers.front().type, dns::RRType::kSOA);

  auto denied = engine.HandleAxfr(axfr, IpAddress(10, 0, 0, 6));
  ASSERT_TRUE(denied.ok());
  ASSERT_EQ(denied->size(), 1u);
  auto refusal = dns::Message::Decode(denied->front());
  ASSERT_TRUE(refusal.ok());
  EXPECT_EQ(refusal->rcode, dns::Rcode::kNotAuth);
  EXPECT_TRUE(refusal->answers.empty());
}

TEST(EngineEdge, AxfrStreamIsSoaDelimited) {
  zone::ViewTable views;
  zone::ZoneSet set;
  ASSERT_TRUE(set.AddZone(MakeZone("t")).ok());
  views.SetDefaultView(std::move(set));
  AuthServerEngine engine(std::move(views));

  dns::Message axfr;
  axfr.questions.push_back(dns::Question{*dns::Name::Parse("t"),
                                         dns::RRType::kAXFR,
                                         dns::RRClass::kIN});
  auto messages = engine.HandleAxfr(axfr, IpAddress(9, 9, 9, 9));
  ASSERT_TRUE(messages.ok());

  std::vector<dns::ResourceRecord> all;
  for (const auto& wire : *messages) {
    auto decoded = dns::Message::Decode(wire);
    ASSERT_TRUE(decoded.ok());
    for (const auto& rr : decoded->answers) all.push_back(rr);
  }
  ASSERT_GE(all.size(), 2u);
  EXPECT_EQ(all.front().type, dns::RRType::kSOA);
  EXPECT_EQ(all.back().type, dns::RRType::kSOA);
  // Every original record appears exactly once between the SOAs (the two
  // SOA copies are the same record).
  EXPECT_EQ(all.size(), 1u + 4u);  // SOA + NS + 2*A + terminal SOA == 5
}

TEST(EngineEdge, StatsAccounting) {
  zone::ViewTable views;
  zone::ZoneSet set;
  ASSERT_TRUE(set.AddZone(MakeZone("s")).ok());
  views.SetDefaultView(std::move(set));
  AuthServerEngine engine(std::move(views));

  auto ask = [&](const char* name) {
    auto query = dns::Message::MakeQuery(*dns::Name::Parse(name),
                                         dns::RRType::kA, false);
    auto wire = engine.HandleWire(query.Encode(), IpAddress(2, 2, 2, 2), 65535);
    EXPECT_TRUE(wire.ok());
  };
  ask("www.s");     // answer
  ask("missing.s"); // nxdomain
  ask("other.tld"); // refused (out of zone)
  Bytes garbage{9, 9};
  auto dropped = engine.HandleWire(garbage, IpAddress(2, 2, 2, 2), 0);
  EXPECT_FALSE(dropped.ok());

  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_EQ(stats.nxdomain, 1u);
  EXPECT_EQ(stats.refused, 1u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_GT(stats.response_bytes, 0u);
}

}  // namespace
}  // namespace ldp::server
