// The wire-level response cache: hits must be byte-identical to a fresh
// lookup except for the two query-dependent bytes (ID, RD), keying must
// separate everything the response depends on (view, DO bit, EDNS
// presence), eviction is LRU, and truncation-prone responses never enter.
#include <gtest/gtest.h>

#include "dns/wire.h"
#include "server/engine.h"
#include "server/response_cache.h"
#include "zone/masterfile.h"

namespace ldp::server {
namespace {

zone::ZonePtr MakeZone(const char* text) {
  auto zone = zone::ParseMasterFile(text, zone::MasterFileOptions{});
  EXPECT_TRUE(zone.ok()) << (zone.ok() ? "" : zone.error().ToString());
  return std::make_shared<zone::Zone>(std::move(*zone));
}

zone::ZonePtr ExampleZone() {
  return MakeZone(R"(
$ORIGIN example.com.
@ 3600 IN SOA ns1 admin 1 2 3 4 300
@ IN NS ns1
ns1 IN A 192.0.2.53
www IN A 192.0.2.1
big IN TXT "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
big IN TXT "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
big IN TXT "cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc"
big IN TXT "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
big IN TXT "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"
big IN TXT "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
big IN TXT "gggggggggggggggggggggggggggggggggggggggggggggggggggggggggggg"
big IN TXT "hhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhh"
big IN TXT "iiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiii"
)");
}

AuthServerEngine MakeEngine(size_t cache_entries) {
  zone::ViewTable views;
  zone::ZoneSet set;
  EXPECT_TRUE(set.AddZone(ExampleZone()).ok());
  views.SetDefaultView(std::move(set));
  EngineOptions options;
  options.response_cache_entries = cache_entries;
  return AuthServerEngine(std::move(views), options);
}

dns::Message Query(const char* name, dns::RRType type = dns::RRType::kA) {
  return dns::Message::MakeQuery(*dns::Name::Parse(name), type, false);
}

Bytes Serve(AuthServerEngine& engine, const dns::Message& query,
            IpAddress source = IpAddress(10, 0, 0, 1)) {
  auto wire = engine.HandleWire(query.Encode(), source, /*udp_limit=*/65535);
  EXPECT_TRUE(wire.ok());
  return *wire;
}

TEST(ResponseCache, HitPatchesIdAndRdOnly) {
  AuthServerEngine engine = MakeEngine(16);

  dns::Message first = Query("www.example.com");
  first.id = 0x1111;
  first.rd = false;
  Bytes miss_wire = Serve(engine, first);
  EXPECT_EQ(engine.stats().cache_misses, 1u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);

  dns::Message repeat = first;
  repeat.id = 0x2b2b;
  repeat.rd = true;
  Bytes hit_wire = Serve(engine, repeat);
  EXPECT_EQ(engine.stats().cache_hits, 1u);

  // The hit is the stored bytes with exactly ID and RD rewritten.
  auto response = dns::Message::Decode(hit_wire);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->id, 0x2b2b);
  EXPECT_TRUE(response->rd);
  ASSERT_EQ(response->answers.size(), 1u);
  ASSERT_EQ(hit_wire.size(), miss_wire.size());
  for (size_t i = 4; i < hit_wire.size(); ++i) {
    EXPECT_EQ(hit_wire[i], miss_wire[i]) << "byte " << i;
  }
  // Counters follow the cached rcode, so hits keep nxdomain exact.
  dns::Message missing = Query("nope.example.com");
  Serve(engine, missing);
  Serve(engine, missing);
  EXPECT_EQ(engine.stats().nxdomain, 2u);
}

TEST(ResponseCache, DoBitAndEdnsPresenceKeyedSeparately) {
  AuthServerEngine engine = MakeEngine(16);

  dns::Message plain = Query("www.example.com");
  dns::Message edns = plain;
  edns.edns = dns::Edns{.udp_payload_size = 1232, .do_bit = false};
  dns::Message dnssec = plain;
  dnssec.edns = dns::Edns{.udp_payload_size = 1232, .do_bit = true};

  Serve(engine, plain);
  Serve(engine, edns);
  Serve(engine, dnssec);
  EXPECT_EQ(engine.stats().cache_misses, 3u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);

  Serve(engine, plain);
  Serve(engine, edns);
  Serve(engine, dnssec);
  EXPECT_EQ(engine.stats().cache_hits, 3u);
  EXPECT_EQ(engine.stats().cache_size, 3u);
}

TEST(ResponseCache, ViewIdentityKeyedSeparately) {
  // Split-horizon: the same question from different sources must not share
  // a cache entry (the answers differ per view).
  zone::ViewTable views;
  zone::ZoneSet view_a, view_b;
  EXPECT_TRUE(view_a
                  .AddZone(MakeZone(R"(
$ORIGIN split.test.
@ 3600 IN SOA ns1 admin 1 2 3 4 300
@ IN NS ns1
www IN A 192.0.2.1
)"))
                  .ok());
  EXPECT_TRUE(view_b
                  .AddZone(MakeZone(R"(
$ORIGIN split.test.
@ 3600 IN SOA ns1 admin 1 2 3 4 300
@ IN NS ns1
www IN A 203.0.113.9
)"))
                  .ok());
  ASSERT_TRUE(
      views.AddView("a", {IpAddress(10, 0, 0, 1)}, std::move(view_a)).ok());
  ASSERT_TRUE(
      views.AddView("b", {IpAddress(10, 0, 0, 2)}, std::move(view_b)).ok());
  EngineOptions options;
  options.response_cache_entries = 16;
  AuthServerEngine engine(std::move(views), options);

  dns::Message query = Query("www.split.test");
  Bytes from_a = Serve(engine, query, IpAddress(10, 0, 0, 1));
  Bytes from_b = Serve(engine, query, IpAddress(10, 0, 0, 2));
  EXPECT_EQ(engine.stats().cache_misses, 2u);
  EXPECT_NE(from_a, from_b);

  // Repeats hit within their own view and stay distinct.
  EXPECT_EQ(Serve(engine, query, IpAddress(10, 0, 0, 1)), from_a);
  EXPECT_EQ(Serve(engine, query, IpAddress(10, 0, 0, 2)), from_b);
  EXPECT_EQ(engine.stats().cache_hits, 2u);
}

TEST(ResponseCache, LruEviction) {
  AuthServerEngine engine = MakeEngine(2);

  dns::Message a = Query("www.example.com");
  dns::Message b = Query("ns1.example.com");
  dns::Message c = Query("gone.example.com");

  Serve(engine, a);
  Serve(engine, b);
  Serve(engine, a);  // promote a: b is now least recently used
  Serve(engine, c);  // capacity 2: evicts b
  EXPECT_EQ(engine.stats().cache_evictions, 1u);
  EXPECT_EQ(engine.stats().cache_size, 2u);

  Serve(engine, b);  // evicted: a fresh miss (and evicts a in turn)
  EXPECT_EQ(engine.stats().cache_misses, 4u);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(engine.stats().cache_evictions, 2u);
}

TEST(ResponseCache, TruncatedResponsesBypassStorage) {
  AuthServerEngine engine = MakeEngine(16);

  // Nine 60-byte TXT strings exceed the 512-byte pre-EDNS limit, so over
  // UDP this truncates — and must never be cached.
  dns::Message big = Query("big.example.com", dns::RRType::kTXT);
  auto first = engine.HandleWire(big.Encode(), IpAddress(10, 0, 0, 1),
                                 /*udp_limit=*/512);
  ASSERT_TRUE(first.ok());
  ASSERT_GE(first->size(), 4u);
  EXPECT_TRUE((*first)[2] & 0x02) << "expected TC";
  EXPECT_EQ(engine.stats().truncated, 1u);
  EXPECT_EQ(engine.stats().cache_size, 0u);

  auto second = engine.HandleWire(big.Encode(), IpAddress(10, 0, 0, 1),
                                  /*udp_limit=*/512);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.stats().cache_misses, 2u);

  // The same answer over a stream transport (udp_limit 0: no truncation)
  // is cacheable — the limit is part of the key, so it cannot collide with
  // the TC-prone UDP bucket.
  auto stream1 =
      engine.HandleWire(big.Encode(), IpAddress(10, 0, 0, 1), 0);
  auto stream2 =
      engine.HandleWire(big.Encode(), IpAddress(10, 0, 0, 1), 0);
  ASSERT_TRUE(stream1.ok());
  ASSERT_TRUE(stream2.ok());
  EXPECT_EQ(*stream1, *stream2);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
}

TEST(ResponseCache, UnusualQueriesBypass) {
  AuthServerEngine engine = MakeEngine(16);

  dns::Message notify = Query("www.example.com");
  notify.opcode = dns::Opcode::kNotify;
  auto served = engine.HandleWire(notify.Encode(), IpAddress(10, 0, 0, 1),
                                  /*udp_limit=*/65535);
  EXPECT_TRUE(served.ok());
  EXPECT_EQ(engine.stats().cache_bypass, 1u);
  EXPECT_EQ(engine.stats().cache_misses, 0u);
  EXPECT_EQ(engine.stats().cache_size, 0u);
}

TEST(ParseWireQuery, ExtractsKeyFields) {
  dns::Message query = Query("www.example.com");
  query.id = 0xbeef;
  query.rd = true;
  query.edns = dns::Edns{.udp_payload_size = 1232, .do_bit = true};
  Bytes wire = query.Encode();

  dns::WireQueryInfo info;
  ASSERT_TRUE(dns::ParseWireQuery(wire, &info));
  EXPECT_EQ(info.id, 0xbeef);
  EXPECT_TRUE(info.rd);
  EXPECT_EQ(info.qtype, static_cast<uint16_t>(dns::RRType::kA));
  EXPECT_TRUE(info.has_edns);
  EXPECT_TRUE(info.do_bit);
  EXPECT_EQ(info.advertised, 1232u);
  // Question = qname (17) + qtype/qclass (4).
  EXPECT_EQ(info.question.size(), 21u);
}

TEST(ParseWireQuery, RejectsUnusualShapes) {
  dns::WireQueryInfo info;
  dns::Message query = Query("www.example.com");
  Bytes wire = query.Encode();

  // Trailing bytes, truncated input, responses: all slow-path.
  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(dns::ParseWireQuery(trailing, &info));
  EXPECT_FALSE(
      dns::ParseWireQuery(std::span<const uint8_t>(wire.data(), 11), &info));
  Bytes response = wire;
  response[2] |= 0x80;  // QR
  EXPECT_FALSE(dns::ParseWireQuery(response, &info));

  // Compression pointer in the question.
  Bytes compressed = wire;
  compressed[12] = 0xc0;
  EXPECT_FALSE(dns::ParseWireQuery(compressed, &info));

  // qdcount != 1.
  Bytes two_questions = wire;
  two_questions[5] = 2;
  EXPECT_FALSE(dns::ParseWireQuery(two_questions, &info));

  // A valid plain query still parses.
  EXPECT_TRUE(dns::ParseWireQuery(wire, &info));
  EXPECT_FALSE(info.has_edns);
  EXPECT_EQ(info.advertised, 0u);
}

}  // namespace
}  // namespace ldp::server
