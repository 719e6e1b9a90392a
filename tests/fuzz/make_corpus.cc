// Regenerates the checked-in seed corpora under tests/fuzz/corpus/ from the
// real encoders, so seeds stay in sync with the wire formats:
//
//   build-fuzz/tests/fuzz/make_corpus tests/fuzz/corpus
//
// Alongside the encoder-generated seeds, each corpus carries the minimized
// reproducers for the parser bugs this subsystem caught (zero-length
// frames, oversized header counts, chunk-count DoS, masterfile tokenizer
// edge cases); replaying them is the regression gate in verify.sh.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "distrib/protocol.h"
#include "dns/framing.h"
#include "dns/message.h"
#include "zone/dnssec.h"
#include "zone/masterfile.h"

namespace {

using namespace ldp;

void WriteFile(const std::filesystem::path& path,
               std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "write failed: %s\n", path.c_str());
    std::exit(1);
  }
}

void WriteFile(const std::filesystem::path& path, std::string_view text) {
  WriteFile(path, std::span<const uint8_t>(
                      reinterpret_cast<const uint8_t*>(text.data()),
                      text.size()));
}

// Framing/distrib harnesses treat byte 0 as the chunk-pattern seed.
Bytes Seeded(uint8_t seed, std::initializer_list<Bytes> parts) {
  Bytes out{seed};
  for (const Bytes& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

dns::Name MustName(std::string_view text) {
  return std::move(dns::Name::Parse(text)).value();
}

dns::Message SampleResponse() {
  dns::Message msg;
  msg.id = 0x1d0;
  msg.qr = true;
  msg.aa = true;
  msg.rd = true;
  msg.ra = true;
  msg.questions.push_back(
      {MustName("www.example.com"), dns::RRType::kA, dns::RRClass::kIN});
  msg.answers.push_back({MustName("www.example.com"), dns::RRType::kCNAME,
                         dns::RRClass::kIN, 300,
                         dns::CnameRdata{MustName("host.example.com")}});
  msg.answers.push_back(
      {MustName("host.example.com"), dns::RRType::kA, dns::RRClass::kIN, 300,
       dns::ARdata{std::move(IpAddress::Parse("192.0.2.7")).value()}});
  msg.authorities.push_back({MustName("example.com"), dns::RRType::kNS,
                             dns::RRClass::kIN, 86400,
                             dns::NsRdata{MustName("ns1.example.com")}});
  msg.additionals.push_back(
      {MustName("ns1.example.com"), dns::RRType::kA, dns::RRClass::kIN,
       86400, dns::ARdata{std::move(IpAddress::Parse("192.0.2.53")).value()}});
  msg.additionals.push_back({MustName("example.com"), dns::RRType::kTXT,
                             dns::RRClass::kIN, 60,
                             dns::TxtRdata{{"v=spf1 -all", "b\"s\\l"}}});
  msg.answers.push_back({MustName("example.com"),
                         static_cast<dns::RRType>(999), dns::RRClass::kIN,
                         30, dns::GenericRdata{{0xde, 0xad, 0xbe, 0xef}}});
  msg.edns = dns::Edns{.udp_payload_size = 4096, .do_bit = true};
  return msg;
}

void WriteWireCorpus(const std::filesystem::path& dir) {
  dns::Message query =
      dns::Message::MakeQuery(MustName("www.example.com"), dns::RRType::kA,
                              /*recursion_desired=*/true);
  query.id = 0x1234;
  query.edns = dns::Edns{.udp_payload_size = 1232};
  WriteFile(dir / "query_edns.bin", query.Encode());
  WriteFile(dir / "response_mixed.bin", SampleResponse().Encode());

  dns::Message soa;
  soa.id = 7;
  soa.qr = true;
  soa.rcode = dns::Rcode::kNxDomain;
  soa.questions.push_back(
      {MustName("nope.example.com"), dns::RRType::kAAAA, dns::RRClass::kIN});
  soa.authorities.push_back(
      {MustName("example.com"), dns::RRType::kSOA, dns::RRClass::kIN, 900,
       dns::SoaRdata{MustName("ns1.example.com"),
                     MustName("hostmaster.example.com"), 2026080901, 7200,
                     3600, 1209600, 900}});
  WriteFile(dir / "nxdomain_soa.bin", soa.Encode());

  // Minimized reproducer: header counts promising far more records than
  // the 12-byte message could hold (the pre-guard decoder looped 4x65535
  // times over an empty body).
  Bytes counts = {0x00, 0x01, 0x00, 0x00, 0xff, 0xff,
                  0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  WriteFile(dir / "repro_oversized_counts.bin", counts);
}

void WriteZoneCorpus(const std::filesystem::path& dir) {
  // Hand-written master-file seeds (text format has no binary encoder).
  WriteFile(dir / "basic.zone",
            "$ORIGIN example.com.\n"
            "$TTL 300\n"
            "@ IN SOA ns1 hostmaster ( 2026080901 7200 3600\n"
            "    1209600 900 ) ; parenthesized continuation\n"
            "@ 86400 IN NS ns1\n"
            "ns1 IN A 192.0.2.53\n"
            "www IN CNAME host\n"
            "host IN A 192.0.2.7\n"
            "host IN AAAA 2001:db8::7\n"
            "@ IN MX 10 mail\n"
            "@ IN TXT \"v=spf1 -all\" \"second \\\"string\\\"\"\n"
            "_sip._tcp IN SRV 10 60 5060 host\n");
  WriteFile(dir / "generic.zone",
            "$ORIGIN example.com.\n"
            "@ IN SOA ns1 root 1 2 3 4 5\n"
            "odd IN TYPE999 \\# 4 deadbeef\n");
  // RFC 3597 rdata of known types loads typed; a DNSKEY with no key bits
  // serializes back in the generic form.
  WriteFile(dir / "generic_known.zone",
            "$ORIGIN example.com.\n"
            "@ IN SOA ns1 root 1 2 3 4 5\n"
            "alias IN CNAME \\# 17 03777777076578616d706c65036e657400\n"
            "@ IN DNSKEY \\# 4 01010308\n");
  // Minimized reproducers for the tokenizer/directive fixes: each must
  // parse-error (the old code silently mis-tokenized or truncated).
  WriteFile(dir / "repro_trailing_backslash.zone",
            "$ORIGIN example.com.\n@ IN SOA ns1 root 1 2 3 4 5\n"
            "www IN A 192.0.2.1\\\n");
  WriteFile(dir / "repro_unterminated_quote.zone",
            "$ORIGIN example.com.\n@ IN SOA ns1 root 1 2 3 4 5\n"
            "t IN TXT \"no closing quote\n");
  WriteFile(dir / "repro_quote_eol_backslash.zone",
            "$ORIGIN example.com.\n@ IN SOA ns1 root 1 2 3 4 5\n"
            "t IN TXT \"dangling\\\n");
  WriteFile(dir / "repro_ttl_overflow.zone",
            "$TTL 4294967296\n$ORIGIN example.com.\n"
            "@ IN SOA ns1 root 1 2 3 4 5\n");
  WriteFile(dir / "repro_bad_directive.zone",
            "$GENERATE 1-10 host$ A 192.0.2.$\n");
  // Owner label "$" must serialize escaped; bare "$." reparsed as a
  // directive (fuzz_zone round-trip oracle violation, fixed in Name).
  WriteFile(dir / "repro_dollar_owner.zone", "$ IN CNAME mp\n");
}

void WriteFramingCorpus(const std::filesystem::path& dir) {
  Bytes query = dns::Message::MakeQuery(MustName("a.example.com"),
                                        dns::RRType::kA, true)
                    .Encode();
  Bytes response = SampleResponse().Encode();
  Bytes framed_query = std::move(dns::FrameMessage(query)).value();
  Bytes framed_response = std::move(dns::FrameMessage(response)).value();

  WriteFile(dir / "two_messages.bin",
            Seeded(0x07, {framed_query, framed_response}));
  Bytes partial(framed_response.begin(),
                framed_response.end() - static_cast<ptrdiff_t>(5));
  WriteFile(dir / "partial_tail.bin", Seeded(0x2a, {framed_query, partial}));
  // Minimized reproducer: zero-length frame after a valid message; the
  // assembler must fail, stay poisoned, and never re-deliver the first
  // message.
  WriteFile(dir / "repro_zero_length_frame.bin",
            Seeded(0x01, {framed_query, Bytes{0x00, 0x00}, framed_query}));
}

void WriteDistribCorpus(const std::filesystem::path& dir) {
  distrib::HelloFrame hello;
  hello.agent_id = 3;
  hello.config.server =
      Endpoint{std::move(IpAddress::Parse("127.0.0.1")).value(), 5353};
  hello.config.local_addr =
      std::move(IpAddress::Parse("127.0.0.5")).value();

  distrib::ChunkFrame chunk;
  chunk.seq = 1;
  trace::QueryRecord record;
  record.timestamp = 1'000'000;
  record.src = std::move(IpAddress::Parse("198.51.100.9")).value();
  record.src_port = 40000;
  record.dst = std::move(IpAddress::Parse("192.0.2.53")).value();
  record.id = 77;
  record.qname = MustName("www.example.com");
  record.qtype = dns::RRType::kAAAA;
  record.edns = true;
  record.udp_payload_size = 1232;
  chunk.records.push_back(record);
  record.protocol = trace::Protocol::kTcp;
  record.qname = MustName("tcp.example.com");
  chunk.records.push_back(record);

  stats::MetricsSnapshot snapshot;
  snapshot.taken_at = 42;
  snapshot.counters.emplace_back("replay.sent", 100);
  snapshot.gauges.emplace_back("replay.inflight", -3);
  stats::HistogramSnapshot hist;
  hist.count = 2;
  hist.sum = 30;
  hist.max = 20;
  hist.buckets.assign(stats::LogHistogram::kNumBuckets, 0);
  hist.buckets[5] = 2;
  snapshot.histograms.emplace_back("replay.latency", hist);

  WriteFile(dir / "session.bin",
            Seeded(0x11, {distrib::EncodeHello(hello),
                          distrib::EncodeHelloAck({}),
                          distrib::EncodeClockPing({}),
                          distrib::EncodeStart({}),
                          distrib::EncodeChunk(chunk),
                          distrib::EncodeChunkAck({}),
                          distrib::EncodeInputDone({}),
                          distrib::EncodeStats(snapshot),
                          distrib::EncodeReport(snapshot),
                          distrib::EncodeBye()}));
  WriteFile(dir / "error_frame.bin",
            Seeded(0x09, {distrib::EncodeError({.message = "agent failed"})}));
  // Minimized reproducer: an 8-byte CHUNK body claiming 2^20 records — the
  // pre-fix decoder reserved the full count before reading a single one.
  Bytes huge_count = {0x00, 0x00, 0x00, 0x09, 0x06, 0x00, 0x00, 0x00,
                      0x00, 0x00, 0x10, 0x00, 0x00};
  WriteFile(dir / "repro_chunk_count.bin", Seeded(0x03, {huge_count}));
}

// fuzz_answer input: u16 zone length, zone text, flags, u16 UDP limit,
// query wire (see fuzz_answer.cc).
Bytes AnswerInput(std::string_view zone, uint8_t flags, uint16_t udp_limit,
                  const dns::Message& query) {
  Bytes out{static_cast<uint8_t>(zone.size() >> 8),
            static_cast<uint8_t>(zone.size() & 0xff)};
  out.insert(out.end(), zone.begin(), zone.end());
  out.push_back(flags);
  out.push_back(static_cast<uint8_t>(udp_limit >> 8));
  out.push_back(static_cast<uint8_t>(udp_limit & 0xff));
  Bytes wire = query.Encode();
  out.insert(out.end(), wire.begin(), wire.end());
  return out;
}

dns::Message AnswerQuery(std::string_view name, dns::RRType type,
                         std::optional<uint16_t> payload, bool do_bit) {
  dns::Message query = dns::Message::MakeQuery(MustName(name), type, false);
  query.id = 0x4242;
  if (payload.has_value()) {
    query.edns = dns::Edns{.udp_payload_size = *payload, .do_bit = do_bit};
  }
  return query;
}

void WriteAnswerCorpus(const std::filesystem::path& dir) {
  const std::string edge =
      "$ORIGIN edge.test.\n"
      "@ 3600 IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
      "@ IN NS ns1\n"
      "@ IN MX 10 mail\n"
      "ns1 IN A 192.0.2.1\n"
      "mail IN A 192.0.2.25\n"
      "www IN CNAME host\n"
      "host IN A 192.0.2.80\n"
      "out IN CNAME www.elsewhere.test.\n"
      "loop1 IN CNAME loop2\n"
      "loop2 IN CNAME loop1\n"
      "*.wc IN A 192.0.2.99\n"
      "*.wcn IN CNAME host\n"
      "a.b.ent IN TXT \"deep\"\n"
      "sub IN NS ns.sub\n"
      "sub IN DS 12345 8 2 49FD46E6C4B45C55D4AC69CBD3CD34AC1AFE51DE\n"
      "ns.sub IN A 192.0.2.53\n"
      "_sip._tcp IN SRV 10 60 5060 host\n"
      "MiXeD IN A 192.0.2.3\n";
  WriteFile(dir / "edge_cname.bin",
            AnswerInput(edge, 0x02, 0,
                        AnswerQuery("www.edge.test", dns::RRType::kA, 4096,
                                    false)));
  WriteFile(dir / "edge_wildcard_udp.bin",
            AnswerInput(edge, 0x04, 512,
                        AnswerQuery("x.wcn.edge.test", dns::RRType::kA,
                                    std::nullopt, false)));
  WriteFile(dir / "edge_referral.bin",
            AnswerInput(edge, 0x2a, 1232,
                        AnswerQuery("www.sub.edge.test", dns::RRType::kA, 1232,
                                    true)));
  // A CNAME written in RFC 3597 generic form (host.edge.test.), chased
  // like any other.
  WriteFile(dir / "generic_cname.bin",
            AnswerInput(edge + "gen IN CNAME \\# 16 "
                               "04686f73740465646765047465737400\n",
                        0x00, 1232,
                        AnswerQuery("gen.edge.test", dns::RRType::kA, 1232,
                                    false)));
  WriteFile(dir / "edge_refused.bin",
            AnswerInput(edge, 0x01, 512,
                        AnswerQuery("www.edge.test", dns::RRType::kAAAA, 512,
                                    false)));

  // A small signed zone, serialized: RRSIGs, NSEC chain, DNSKEY.
  auto signed_zone = std::move(zone::ParseMasterFile(
                                   "$ORIGIN signed.test.\n"
                                   "@ 300 IN SOA ns1 hostmaster 1 2 3 4 300\n"
                                   "@ IN NS ns1\n"
                                   "ns1 IN A 192.0.2.1\n"
                                   "*.w IN A 192.0.2.9\n",
                                   zone::MasterFileOptions{}))
                         .value();
  zone::DnssecConfig dnssec;
  dnssec.zsk_bits = 512;
  dnssec.ksk_bits = 512;
  if (!zone::SignZone(signed_zone, dnssec).ok()) {
    std::fprintf(stderr, "signing the answer seed zone failed\n");
    std::exit(1);
  }
  std::string signed_text = zone::SerializeZone(signed_zone);
  WriteFile(dir / "signed_nxdomain.bin",
            AnswerInput(signed_text, 0x0a, 0,
                        AnswerQuery("nope.signed.test", dns::RRType::kA, 4096,
                                    true)));
  WriteFile(dir / "signed_wildcard_truncated.bin",
            AnswerInput(signed_text, 0x1e, 300,
                        AnswerQuery("a.w.signed.test", dns::RRType::kA, 4096,
                                    true)));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 1;
  }
  std::filesystem::path root(argv[1]);
  for (const char* sub : {"wire", "zone", "framing", "distrib", "answer"}) {
    std::filesystem::create_directories(root / sub);
  }
  WriteWireCorpus(root / "wire");
  WriteZoneCorpus(root / "zone");
  WriteFramingCorpus(root / "framing");
  WriteDistribCorpus(root / "distrib");
  WriteAnswerCorpus(root / "answer");
  std::printf("corpus written under %s\n", root.c_str());
  return 0;
}
