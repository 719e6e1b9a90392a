#include <gtest/gtest.h>

#include "common/strings.h"
#include "zone/dnssec.h"
#include "zone/lookup.h"
#include "zone/masterfile.h"
#include "zone/view.h"
#include "zone/zone.h"

namespace ldp::zone {
namespace {

using dns::Name;
using dns::RRType;

// Splits rdata text on whitespace but keeps "quoted strings" together.
std::vector<std::string> TokenizeRdata(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] == ' ' || text[i] == '\t') { ++i; continue; }
    std::string token;
    if (text[i] == '"') {
      token.push_back(text[i++]);
      while (i < text.size() && text[i] != '"') token.push_back(text[i++]);
      if (i < text.size()) token.push_back(text[i++]);
    } else {
      while (i < text.size() && text[i] != ' ' && text[i] != '\t') {
        token.push_back(text[i++]);
      }
    }
    out.push_back(std::move(token));
  }
  return out;
}

dns::ResourceRecord Rec(const char* name, RRType type, const char* rdata_text,
                        uint32_t ttl = 3600) {
  auto parts = TokenizeRdata(rdata_text);
  std::vector<std::string_view> tokens(parts.begin(), parts.end());
  auto rdata = dns::RdataFromText(type, tokens);
  EXPECT_TRUE(rdata.ok()) << rdata_text;
  return dns::ResourceRecord{*Name::Parse(name), type, dns::RRClass::kIN, ttl,
                             std::move(*rdata)};
}

// example.com zone with a delegation, wildcard, CNAME, and glue.
Zone MakeExampleZone() {
  Zone zone(*Name::Parse("example.com"));
  EXPECT_TRUE(zone.AddRecord(Rec("example.com", RRType::kSOA,
                                 "ns1.example.com. admin.example.com. "
                                 "1 7200 3600 1209600 300"))
                  .ok());
  EXPECT_TRUE(
      zone.AddRecord(Rec("example.com", RRType::kNS, "ns1.example.com.")).ok());
  EXPECT_TRUE(
      zone.AddRecord(Rec("example.com", RRType::kNS, "ns2.example.com.")).ok());
  EXPECT_TRUE(zone.AddRecord(Rec("ns1.example.com", RRType::kA, "192.0.2.53")).ok());
  EXPECT_TRUE(zone.AddRecord(Rec("ns2.example.com", RRType::kA, "192.0.2.54")).ok());
  EXPECT_TRUE(zone.AddRecord(Rec("www.example.com", RRType::kA, "192.0.2.1")).ok());
  EXPECT_TRUE(zone.AddRecord(Rec("www.example.com", RRType::kA, "192.0.2.2")).ok());
  EXPECT_TRUE(zone.AddRecord(
      Rec("alias.example.com", RRType::kCNAME, "www.example.com.")).ok());
  EXPECT_TRUE(zone.AddRecord(
      Rec("external.example.com", RRType::kCNAME, "www.other.net.")).ok());
  EXPECT_TRUE(zone.AddRecord(Rec("*.wild.example.com", RRType::kTXT,
                                 "\"wildcard data\"")).ok());
  // Delegation of sub.example.com with in-zone glue.
  EXPECT_TRUE(zone.AddRecord(
      Rec("sub.example.com", RRType::kNS, "ns.sub.example.com.")).ok());
  EXPECT_TRUE(
      zone.AddRecord(Rec("ns.sub.example.com", RRType::kA, "192.0.2.100")).ok());
  // Name under a deep path, making b.deep.example.com an empty non-terminal.
  EXPECT_TRUE(zone.AddRecord(
      Rec("a.b.deep.example.com", RRType::kA, "192.0.2.200")).ok());
  EXPECT_TRUE(zone.AddRecord(Rec("example.com", RRType::kMX,
                                 "10 mail.example.com.")).ok());
  EXPECT_TRUE(zone.AddRecord(Rec("mail.example.com", RRType::kA,
                                 "192.0.2.25")).ok());
  return zone;
}

TEST(Zone, BasicProperties) {
  Zone zone = MakeExampleZone();
  EXPECT_TRUE(zone.Validate().ok());
  EXPECT_EQ(zone.origin().ToString(), "example.com.");
  EXPECT_NE(zone.Soa(), nullptr);
  EXPECT_NE(zone.ApexNs(), nullptr);
  EXPECT_EQ(zone.ApexNs()->size(), 2u);
  EXPECT_GT(zone.MemoryFootprint(), 0u);
}

TEST(Zone, DuplicateRdataIgnored) {
  Zone zone = MakeExampleZone();
  size_t before = zone.record_count();
  EXPECT_TRUE(zone.AddRecord(Rec("www.example.com", RRType::kA,
                                 "192.0.2.1")).ok());
  EXPECT_EQ(zone.record_count(), before);
}

// A name's RRsets sit in one vector kept in ascending RRType order: adds in
// any order must read back sorted, with set semantics per RRset.
TEST(Zone, NodeKeepsTypeOrderAndDropsDuplicates) {
  Zone zone(*Name::Parse("example.com"));
  const char* owner = "multi.example.com";
  const std::vector<dns::ResourceRecord> records = {
      Rec(owner, RRType::kTXT, "\"one\""),
      Rec(owner, RRType::kAAAA, "2001:db8::1"),
      Rec(owner, RRType::kMX, "10 mail.example.com."),
      Rec(owner, RRType::kA, "192.0.2.1"),
      Rec(owner, RRType::kDS, "12345 8 2 abcdef"),
      Rec(owner, RRType::kNS, "ns.example.net."),
      Rec(owner, RRType::kA, "192.0.2.2"),
      Rec(owner, RRType::kTXT, "\"two\""),
  };
  for (const auto& record : records) {
    ASSERT_TRUE(zone.AddRecord(record).ok()) << record.ToText();
  }
  // Every record again: each is a duplicate and changes nothing.
  for (const auto& record : records) {
    ASSERT_TRUE(zone.AddRecord(record).ok());
  }
  EXPECT_EQ(zone.record_count(), records.size());

  const std::vector<RRType> sorted = {RRType::kA,   RRType::kNS,
                                      RRType::kMX,  RRType::kTXT,
                                      RRType::kAAAA, RRType::kDS};
  std::vector<RRType> found;
  for (const dns::RRset* rrset : zone.FindNode(*Name::Parse(owner))) {
    found.push_back(rrset->type);
  }
  EXPECT_EQ(found, sorted);
  std::vector<RRType> visited;
  zone.ForEachRRset([&](const dns::RRset& rrset) {
    visited.push_back(rrset.type);
  });
  EXPECT_EQ(visited, sorted);

  for (RRType type : sorted) {
    const dns::RRset* rrset = zone.FindRRset(*Name::Parse(owner), type);
    ASSERT_NE(rrset, nullptr) << dns::RRTypeToString(type);
    EXPECT_EQ(rrset->type, type);
    EXPECT_EQ(rrset->size(),
              type == RRType::kA || type == RRType::kTXT ? 2u : 1u);
  }
  EXPECT_EQ(zone.FindRRset(*Name::Parse(owner), RRType::kCNAME), nullptr);
  EXPECT_EQ(zone.FindRRset(*Name::Parse(owner), RRType::kSOA), nullptr);
}

TEST(Zone, RejectsOutOfZoneRecord) {
  Zone zone = MakeExampleZone();
  EXPECT_FALSE(zone.AddRecord(Rec("www.other.net", RRType::kA,
                                  "192.0.2.9")).ok());
}

TEST(Zone, EmptyNonTerminal) {
  Zone zone = MakeExampleZone();
  EXPECT_TRUE(zone.IsEmptyNonTerminal(*Name::Parse("b.deep.example.com")));
  EXPECT_TRUE(zone.IsEmptyNonTerminal(*Name::Parse("deep.example.com")));
  EXPECT_FALSE(zone.IsEmptyNonTerminal(*Name::Parse("a.b.deep.example.com")));
  EXPECT_FALSE(zone.IsEmptyNonTerminal(*Name::Parse("nothere.example.com")));
}

TEST(Zone, DelegationPoints) {
  Zone zone = MakeExampleZone();
  auto cuts = zone.DelegationPoints();
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0].ToString(), "sub.example.com.");
}

TEST(Lookup, ExactMatch) {
  Zone zone = MakeExampleZone();
  auto result = Lookup(zone, *Name::Parse("www.example.com"), RRType::kA);
  EXPECT_EQ(result.outcome, LookupOutcome::kAnswer);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].size(), 2u);
  EXPECT_FALSE(result.wildcard);
}

TEST(Lookup, NoData) {
  Zone zone = MakeExampleZone();
  auto result = Lookup(zone, *Name::Parse("www.example.com"), RRType::kAAAA);
  EXPECT_EQ(result.outcome, LookupOutcome::kNoData);
  ASSERT_EQ(result.authority.size(), 1u);
  EXPECT_EQ(result.authority[0].type, RRType::kSOA);
}

TEST(Lookup, NxDomain) {
  Zone zone = MakeExampleZone();
  auto result = Lookup(zone, *Name::Parse("missing.example.com"), RRType::kA);
  EXPECT_EQ(result.outcome, LookupOutcome::kNxDomain);
  ASSERT_EQ(result.authority.size(), 1u);
  EXPECT_EQ(result.authority[0].type, RRType::kSOA);
}

TEST(Lookup, EmptyNonTerminalIsNoData) {
  Zone zone = MakeExampleZone();
  auto result = Lookup(zone, *Name::Parse("b.deep.example.com"), RRType::kA);
  EXPECT_EQ(result.outcome, LookupOutcome::kNoData);
}

TEST(Lookup, CnameChaseInZone) {
  Zone zone = MakeExampleZone();
  auto result = Lookup(zone, *Name::Parse("alias.example.com"), RRType::kA);
  EXPECT_EQ(result.outcome, LookupOutcome::kCname);
  ASSERT_EQ(result.answers.size(), 2u);
  EXPECT_EQ(result.answers[0].type, RRType::kCNAME);
  EXPECT_EQ(result.answers[1].type, RRType::kA);
  EXPECT_EQ(result.answers[1].name.ToString(), "www.example.com.");
}

TEST(Lookup, CnameToExternalTarget) {
  Zone zone = MakeExampleZone();
  auto result = Lookup(zone, *Name::Parse("external.example.com"), RRType::kA);
  EXPECT_EQ(result.outcome, LookupOutcome::kCname);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].type, RRType::kCNAME);
}

TEST(Lookup, CnameQueryReturnsCnameItself) {
  Zone zone = MakeExampleZone();
  auto result = Lookup(zone, *Name::Parse("alias.example.com"), RRType::kCNAME);
  EXPECT_EQ(result.outcome, LookupOutcome::kAnswer);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].type, RRType::kCNAME);
}

TEST(Lookup, CnameLoopTerminates) {
  Zone zone(*Name::Parse("loop.test"));
  ASSERT_TRUE(zone.AddRecord(Rec("loop.test", RRType::kSOA,
                                 "ns.loop.test. a.loop.test. 1 2 3 4 5")).ok());
  ASSERT_TRUE(zone.AddRecord(Rec("loop.test", RRType::kNS, "ns.loop.test.")).ok());
  ASSERT_TRUE(zone.AddRecord(Rec("a.loop.test", RRType::kCNAME, "b.loop.test.")).ok());
  ASSERT_TRUE(zone.AddRecord(Rec("b.loop.test", RRType::kCNAME, "a.loop.test.")).ok());
  auto result = Lookup(zone, *Name::Parse("a.loop.test"), RRType::kA);
  EXPECT_EQ(result.outcome, LookupOutcome::kCname);
  EXPECT_EQ(result.answers.size(), 2u);
}

TEST(Lookup, Wildcard) {
  Zone zone = MakeExampleZone();
  auto result = Lookup(zone, *Name::Parse("anything.wild.example.com"),
                       RRType::kTXT);
  EXPECT_EQ(result.outcome, LookupOutcome::kAnswer);
  EXPECT_TRUE(result.wildcard);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].name.ToString(), "anything.wild.example.com.");
}

TEST(Lookup, WildcardNoDataForOtherType) {
  Zone zone = MakeExampleZone();
  auto result = Lookup(zone, *Name::Parse("anything.wild.example.com"),
                       RRType::kA);
  EXPECT_EQ(result.outcome, LookupOutcome::kNoData);
  EXPECT_TRUE(result.wildcard);
}

TEST(Lookup, WildcardDoesNotApplyToExistingName) {
  Zone zone = MakeExampleZone();
  // *.wild.example.com exists as a node; an exact query for a sibling that
  // exists must not wildcard-expand. Add an explicit sibling:
  ASSERT_TRUE(zone.AddRecord(Rec("real.wild.example.com", RRType::kA,
                                 "192.0.2.77")).ok());
  auto result = Lookup(zone, *Name::Parse("real.wild.example.com"),
                       RRType::kTXT);
  EXPECT_EQ(result.outcome, LookupOutcome::kNoData);
  EXPECT_FALSE(result.wildcard);
}

TEST(Lookup, Delegation) {
  Zone zone = MakeExampleZone();
  auto result = Lookup(zone, *Name::Parse("host.sub.example.com"), RRType::kA);
  EXPECT_EQ(result.outcome, LookupOutcome::kDelegation);
  ASSERT_EQ(result.authority.size(), 1u);
  EXPECT_EQ(result.authority[0].type, RRType::kNS);
  // Glue for ns.sub.example.com.
  ASSERT_EQ(result.additional.size(), 1u);
  EXPECT_EQ(result.additional[0].name.ToString(), "ns.sub.example.com.");
}

TEST(Lookup, DelegationAtCutItself) {
  Zone zone = MakeExampleZone();
  auto result = Lookup(zone, *Name::Parse("sub.example.com"), RRType::kA);
  EXPECT_EQ(result.outcome, LookupOutcome::kDelegation);
}

TEST(Lookup, DsAtCutAnsweredFromParent) {
  Zone zone = MakeExampleZone();
  ASSERT_TRUE(zone.AddRecord(Rec("sub.example.com", RRType::kDS,
                                 "12345 8 2 aabbccdd")).ok());
  auto result = Lookup(zone, *Name::Parse("sub.example.com"), RRType::kDS);
  EXPECT_EQ(result.outcome, LookupOutcome::kAnswer);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].type, RRType::kDS);
}

TEST(Lookup, NotInZone) {
  Zone zone = MakeExampleZone();
  auto result = Lookup(zone, *Name::Parse("www.other.net"), RRType::kA);
  EXPECT_EQ(result.outcome, LookupOutcome::kNotInZone);
}

TEST(Lookup, AnyQuery) {
  Zone zone = MakeExampleZone();
  auto result = Lookup(zone, *Name::Parse("example.com"), RRType::kANY);
  EXPECT_EQ(result.outcome, LookupOutcome::kAnswer);
  EXPECT_GE(result.answers.size(), 3u);  // SOA, NS, MX
}

TEST(BuildResponse, PositiveAnswer) {
  Zone zone = MakeExampleZone();
  auto query = dns::Message::MakeQuery(*Name::Parse("www.example.com"),
                                       RRType::kA, false);
  query.id = 42;
  auto response = BuildResponse(zone, query, false);
  EXPECT_EQ(response.id, 42);
  EXPECT_TRUE(response.qr);
  EXPECT_TRUE(response.aa);
  EXPECT_EQ(response.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(response.answers.size(), 2u);
}

TEST(BuildResponse, MxAdditionalProcessing) {
  Zone zone = MakeExampleZone();
  auto query = dns::Message::MakeQuery(*Name::Parse("example.com"),
                                       RRType::kMX, false);
  auto response = BuildResponse(zone, query, false);
  ASSERT_EQ(response.answers.size(), 1u);
  ASSERT_EQ(response.additionals.size(), 1u);
  EXPECT_EQ(response.additionals[0].name.ToString(), "mail.example.com.");
}

TEST(BuildResponse, NxDomainRcode) {
  Zone zone = MakeExampleZone();
  auto query = dns::Message::MakeQuery(*Name::Parse("nope.example.com"),
                                       RRType::kA, false);
  auto response = BuildResponse(zone, query, false);
  EXPECT_EQ(response.rcode, dns::Rcode::kNxDomain);
  ASSERT_EQ(response.authorities.size(), 1u);
  EXPECT_EQ(response.authorities[0].type, RRType::kSOA);
}

TEST(BuildResponse, RefusedOutOfZone) {
  Zone zone = MakeExampleZone();
  auto query = dns::Message::MakeQuery(*Name::Parse("www.other.net"),
                                       RRType::kA, false);
  auto response = BuildResponse(zone, query, false);
  EXPECT_EQ(response.rcode, dns::Rcode::kRefused);
}

TEST(BuildResponse, ReferralNotAuthoritative) {
  Zone zone = MakeExampleZone();
  auto query = dns::Message::MakeQuery(*Name::Parse("x.sub.example.com"),
                                       RRType::kA, false);
  auto response = BuildResponse(zone, query, false);
  EXPECT_FALSE(response.aa);
  EXPECT_EQ(response.rcode, dns::Rcode::kNoError);
  EXPECT_TRUE(response.answers.empty());
  EXPECT_FALSE(response.authorities.empty());
}

TEST(Dnssec, SignAddsRecords) {
  Zone zone = MakeExampleZone();
  size_t before = zone.record_count();
  ASSERT_TRUE(SignZone(zone, DnssecConfig{}).ok());
  EXPECT_GT(zone.record_count(), before);
  EXPECT_NE(zone.FindRRset(zone.origin(), RRType::kDNSKEY), nullptr);
  EXPECT_NE(zone.FindRRset(zone.origin(), RRType::kNSEC), nullptr);
  EXPECT_NE(zone.FindRRset(zone.origin(), RRType::kRRSIG), nullptr);
  // Signing twice is an error.
  EXPECT_FALSE(SignZone(zone, DnssecConfig{}).ok());
}

// Signing adds DNSKEY, NSEC and RRSIG RRsets at the apex, which moves the
// SOA RRset within its node: the NSEC TTL must come from the SOA TTL as it
// was read before those adds. Every other TTL here differs from the SOA's.
TEST(Dnssec, NsecTtlEqualsSoaTtl) {
  constexpr uint32_t kSoaTtl = 777;
  Zone zone(*Name::Parse("example.com"));
  ASSERT_TRUE(zone.AddRecord(Rec("example.com", RRType::kSOA,
                                 "ns1.example.com. admin.example.com. "
                                 "1 7200 3600 1209600 300",
                                 kSoaTtl))
                  .ok());
  ASSERT_TRUE(
      zone.AddRecord(Rec("example.com", RRType::kNS, "ns1.example.com.")).ok());
  ASSERT_TRUE(zone.AddRecord(Rec("example.com", RRType::kMX,
                                 "10 mail.example.com.", 60)).ok());
  for (const char* name : {"ns1.example.com", "mail.example.com",
                           "www.example.com", "zz.example.com"}) {
    ASSERT_TRUE(zone.AddRecord(Rec(name, RRType::kA, "192.0.2.1")).ok());
  }
  ASSERT_TRUE(SignZone(zone, DnssecConfig{}).ok());
  ASSERT_EQ(zone.Soa()->ttl, kSoaTtl);

  size_t nsec_sets = 0;
  zone.ForEachRRset([&](const dns::RRset& rrset) {
    if (rrset.type == RRType::kNSEC) {
      EXPECT_EQ(rrset.ttl, kSoaTtl) << rrset.name.ToString();
      ++nsec_sets;
    }
    if (rrset.type != RRType::kRRSIG) return;
    for (const auto& rdata : rrset.rdatas) {
      const auto& sig = std::get<dns::RrsigRdata>(rdata);
      if (sig.type_covered == RRType::kNSEC) {
        EXPECT_EQ(sig.original_ttl, kSoaTtl) << rrset.name.ToString();
      }
    }
  });
  EXPECT_EQ(nsec_sets, 5u);  // the apex and four names
}

TEST(Dnssec, GlueAndDelegationNsUnsigned) {
  Zone zone = MakeExampleZone();
  ASSERT_TRUE(SignZone(zone, DnssecConfig{}).ok());
  // Glue below the cut carries no RRSIG or NSEC.
  EXPECT_EQ(zone.FindRRset(*Name::Parse("ns.sub.example.com"), RRType::kRRSIG),
            nullptr);
  // The cut node has NSEC (parent-side) but no RRSIG covering NS.
  const dns::RRset* cut_sigs =
      zone.FindRRset(*Name::Parse("sub.example.com"), RRType::kRRSIG);
  ASSERT_NE(cut_sigs, nullptr);
  for (const auto& rdata : cut_sigs->rdatas) {
    const auto& sig = std::get<dns::RrsigRdata>(rdata);
    EXPECT_NE(sig.type_covered, RRType::kNS);
  }
}

TEST(Dnssec, SignatureSizeTracksZskBits) {
  Zone zone1024 = MakeExampleZone();
  ASSERT_TRUE(SignZone(zone1024, DnssecConfig{.zsk_bits = 1024}).ok());
  Zone zone2048 = MakeExampleZone();
  ASSERT_TRUE(SignZone(zone2048, DnssecConfig{.zsk_bits = 2048}).ok());

  auto sig_size = [](const Zone& zone) {
    const dns::RRset* sigs =
        zone.FindRRset(*Name::Parse("www.example.com"), RRType::kRRSIG);
    EXPECT_NE(sigs, nullptr);
    return std::get<dns::RrsigRdata>(sigs->rdatas[0]).signature.size();
  };
  EXPECT_EQ(sig_size(zone1024), 128u);
  EXPECT_EQ(sig_size(zone2048), 256u);
}

TEST(Dnssec, RolloverDoublesSignatures) {
  Zone normal = MakeExampleZone();
  ASSERT_TRUE(SignZone(normal, DnssecConfig{}).ok());
  Zone rollover = MakeExampleZone();
  ASSERT_TRUE(SignZone(rollover, DnssecConfig{.zsk_rollover = true}).ok());

  auto count_sigs = [](const Zone& zone) {
    const dns::RRset* sigs =
        zone.FindRRset(*Name::Parse("www.example.com"), RRType::kRRSIG);
    if (sigs == nullptr) return size_t{0};
    size_t covering_a = 0;
    for (const auto& rdata : sigs->rdatas) {
      if (std::get<dns::RrsigRdata>(rdata).type_covered == RRType::kA) {
        ++covering_a;
      }
    }
    return covering_a;
  };
  EXPECT_EQ(count_sigs(normal), 1u);
  EXPECT_EQ(count_sigs(rollover), 2u);
  // And an extra DNSKEY.
  EXPECT_EQ(rollover.FindRRset(rollover.origin(), RRType::kDNSKEY)->size(),
            normal.FindRRset(normal.origin(), RRType::kDNSKEY)->size() + 1);
}

TEST(BuildResponse, DnssecAnswersIncludeSigs) {
  Zone zone = MakeExampleZone();
  ASSERT_TRUE(SignZone(zone, DnssecConfig{}).ok());
  auto query = dns::Message::MakeQuery(*Name::Parse("www.example.com"),
                                       RRType::kA, false);
  query.edns = dns::Edns{.do_bit = true};

  auto with = BuildResponse(zone, query, true);
  bool has_sig = false;
  for (const auto& rr : with.answers) {
    if (rr.type == RRType::kRRSIG) has_sig = true;
  }
  EXPECT_TRUE(has_sig);

  auto without = BuildResponse(zone, query, false);
  for (const auto& rr : without.answers) {
    EXPECT_NE(rr.type, RRType::kRRSIG);
  }
  EXPECT_GT(with.Encode().size(), without.Encode().size());
}

TEST(BuildResponse, DnssecNxDomainIncludesNsec) {
  Zone zone = MakeExampleZone();
  ASSERT_TRUE(SignZone(zone, DnssecConfig{}).ok());
  auto query = dns::Message::MakeQuery(*Name::Parse("qqq.example.com"),
                                       RRType::kA, false);
  query.edns = dns::Edns{.do_bit = true};
  auto response = BuildResponse(zone, query, true);
  EXPECT_EQ(response.rcode, dns::Rcode::kNxDomain);
  bool has_nsec = false, has_sig = false;
  for (const auto& rr : response.authorities) {
    if (rr.type == RRType::kNSEC) has_nsec = true;
    if (rr.type == RRType::kRRSIG) has_sig = true;
  }
  EXPECT_TRUE(has_nsec);
  EXPECT_TRUE(has_sig);
}

TEST(BuildResponse, WildcardDnssecSignaturesRelocated) {
  Zone zone = MakeExampleZone();
  ASSERT_TRUE(SignZone(zone, DnssecConfig{}).ok());
  auto query = dns::Message::MakeQuery(
      *Name::Parse("something.wild.example.com"), RRType::kTXT, false);
  auto response = BuildResponse(zone, query, true);
  bool found = false;
  for (const auto& rr : response.answers) {
    if (rr.type == RRType::kRRSIG) {
      EXPECT_EQ(rr.name.ToString(), "something.wild.example.com.");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MasterFile, ParseBasicZone) {
  const char* text = R"(
$ORIGIN example.com.
$TTL 3600
@   IN SOA ns1 admin 1 7200 3600 1209600 300
    IN NS  ns1
    IN NS  ns2.example.com.
ns1 IN A   192.0.2.53
ns2 300 IN A 192.0.2.54
www IN A   192.0.2.1
    IN A   192.0.2.2
txt IN TXT "hello world" "second string"
mx  IN MX  10 mail
)";
  auto zone = ParseMasterFile(text, MasterFileOptions{});
  ASSERT_TRUE(zone.ok()) << zone.error().ToString();
  EXPECT_EQ(zone->origin().ToString(), "example.com.");
  EXPECT_TRUE(zone->Validate().ok());
  auto* www = zone->FindRRset(*Name::Parse("www.example.com"), RRType::kA);
  ASSERT_NE(www, nullptr);
  EXPECT_EQ(www->size(), 2u);
  auto* ns2 = zone->FindRRset(*Name::Parse("ns2.example.com"), RRType::kA);
  ASSERT_NE(ns2, nullptr);
  EXPECT_EQ(ns2->ttl, 300u);
  auto* txt = zone->FindRRset(*Name::Parse("txt.example.com"), RRType::kTXT);
  ASSERT_NE(txt, nullptr);
  auto& strings = std::get<dns::TxtRdata>(txt->rdatas[0]).strings;
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0], "hello world");
  auto* mx = zone->FindRRset(*Name::Parse("mx.example.com"), RRType::kMX);
  ASSERT_NE(mx, nullptr);
  EXPECT_EQ(std::get<dns::MxRdata>(mx->rdatas[0]).exchange.ToString(),
            "mail.example.com.");
}

TEST(MasterFile, ParenthesesContinuation) {
  const char* text =
      "$ORIGIN example.com.\n"
      "@ 3600 IN SOA ns1.example.com. admin.example.com. (\n"
      "      2024010101 ; serial\n"
      "      7200       ; refresh\n"
      "      3600 1209600 300 )\n"
      "@ IN NS ns1.example.com.\n";
  auto zone = ParseMasterFile(text, MasterFileOptions{});
  ASSERT_TRUE(zone.ok()) << zone.error().ToString();
  auto* soa = zone->Soa();
  ASSERT_NE(soa, nullptr);
  EXPECT_EQ(std::get<dns::SoaRdata>(soa->rdatas[0]).serial, 2024010101u);
}

TEST(MasterFile, CommentsAndBlankLines) {
  const char* text =
      "; leading comment\n"
      "$ORIGIN t.\n"
      "\n"
      "@ IN SOA ns.t. a.t. 1 2 3 4 5 ; trailing comment\n"
      "@ IN NS ns.t.\n"
      "ns IN A 10.0.0.1\n";
  auto zone = ParseMasterFile(text, MasterFileOptions{});
  ASSERT_TRUE(zone.ok()) << zone.error().ToString();
  EXPECT_EQ(zone->record_count(), 3u);
}

TEST(MasterFile, ErrorsSurfaceContext) {
  EXPECT_FALSE(ParseMasterFile("", MasterFileOptions{}).ok());
  EXPECT_FALSE(
      ParseMasterFile("www IN A not-an-ip\n",
                      MasterFileOptions{.default_origin = *Name::Parse("t.")})
          .ok());
  EXPECT_FALSE(
      ParseMasterFile("$BOGUS x\n@ IN A 1.2.3.4\n", MasterFileOptions{}).ok());
}

TEST(MasterFile, SerializeRoundTrip) {
  Zone zone = MakeExampleZone();
  ASSERT_TRUE(SignZone(zone, DnssecConfig{}).ok());
  std::string text = SerializeZone(zone);
  auto reparsed = ParseMasterFile(text, MasterFileOptions{});
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().ToString();
  EXPECT_EQ(reparsed->record_count(), zone.record_count());
  EXPECT_EQ(reparsed->node_count(), zone.node_count());
  // Spot-check an RRSIG survives intact.
  auto* sigs = reparsed->FindRRset(*Name::Parse("www.example.com"),
                                   RRType::kRRSIG);
  ASSERT_NE(sigs, nullptr);
  auto* orig = zone.FindRRset(*Name::Parse("www.example.com"), RRType::kRRSIG);
  EXPECT_EQ(*sigs, *orig);
}

TEST(ZoneSet, LongestMatchWins) {
  ZoneSet set;
  auto root = std::make_shared<Zone>(Name::Root());
  auto com = std::make_shared<Zone>(*Name::Parse("com"));
  auto example = std::make_shared<Zone>(*Name::Parse("example.com"));
  ASSERT_TRUE(set.AddZone(root).ok());
  ASSERT_TRUE(set.AddZone(com).ok());
  ASSERT_TRUE(set.AddZone(example).ok());
  EXPECT_EQ(set.FindBestZone(*Name::Parse("www.example.com")), example.get());
  EXPECT_EQ(set.FindBestZone(*Name::Parse("other.com")), com.get());
  EXPECT_EQ(set.FindBestZone(*Name::Parse("www.net")), root.get());
  EXPECT_EQ(set.zone_count(), 3u);
  EXPECT_FALSE(set.AddZone(com).ok());  // duplicate origin
}

TEST(ZoneSet, EmptySetFindsNothing) {
  ZoneSet set;
  EXPECT_EQ(set.FindBestZone(*Name::Parse("a.b")), nullptr);
}

TEST(ViewTable, SourceAddressSelectsView) {
  ViewTable table;
  ZoneSet root_set, com_set;
  ASSERT_TRUE(root_set.AddZone(std::make_shared<Zone>(Name::Root())).ok());
  ASSERT_TRUE(
      com_set.AddZone(std::make_shared<Zone>(*Name::Parse("com"))).ok());

  // Root servers' public addresses select the root view.
  ASSERT_TRUE(table
                  .AddView("root", {IpAddress(198, 41, 0, 4),
                                    IpAddress(192, 228, 79, 201)},
                           std::move(root_set))
                  .ok());
  ASSERT_TRUE(table
                  .AddView("com", {IpAddress(192, 5, 6, 30)},
                           std::move(com_set))
                  .ok());

  const ZoneSet* root_match = table.Match(IpAddress(198, 41, 0, 4));
  ASSERT_NE(root_match, nullptr);
  EXPECT_NE(root_match->FindBestZone(*Name::Parse("anything.test")), nullptr);

  const ZoneSet* com_match = table.Match(IpAddress(192, 5, 6, 30));
  ASSERT_NE(com_match, nullptr);
  EXPECT_EQ(com_match->FindBestZone(*Name::Parse("example.com"))->origin(),
            *Name::Parse("com"));

  // Unknown source falls through to the (empty) default view.
  const ZoneSet* fallback = table.Match(IpAddress(10, 9, 9, 9));
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback->zone_count(), 0u);
}

TEST(ViewTable, RejectsAmbiguousSource) {
  ViewTable table;
  ZoneSet a, b;
  ASSERT_TRUE(a.AddZone(std::make_shared<Zone>(*Name::Parse("a"))).ok());
  ASSERT_TRUE(b.AddZone(std::make_shared<Zone>(*Name::Parse("b"))).ok());
  ASSERT_TRUE(
      table.AddView("a", {IpAddress(10, 0, 0, 1)}, std::move(a)).ok());
  EXPECT_FALSE(
      table.AddView("b", {IpAddress(10, 0, 0, 1)}, std::move(b)).ok());
}

// --- adversarial master-file inputs (fuzz_zone regression targets) ---

// RFC 3597 §5: rdata of a known type written in generic form loads as the
// typed record, so Lookup chases a generic CNAME like any other (it used to
// reach Lookup as opaque bytes and throw bad_variant_access). Bytes that do
// not decode to exactly the stated length are rejected at load.
TEST(MasterFile, GenericRdataOfKnownTypeLoadsTyped) {
  auto zone = ParseMasterFile(
      "$ORIGIN example.com.\n@ IN SOA ns1 root 1 2 3 4 5\n@ IN NS ns1\n"
      "ns1 IN A \\# 4 c0000235\n"
      // www.example.net. in wire form
      "alias IN CNAME \\# 17 03777777076578616d706c65036e657400\n",
      {});
  ASSERT_TRUE(zone.ok()) << zone.error().ToString();
  auto result = Lookup(*zone, *Name::Parse("alias.example.com"), RRType::kA);
  EXPECT_EQ(result.outcome, LookupOutcome::kCname);
  ASSERT_EQ(result.answers.size(), 1u);
  ASSERT_EQ(result.answers[0].rdatas.size(), 1u);
  EXPECT_EQ(std::get<dns::CnameRdata>(result.answers[0].rdatas[0]).target,
            *Name::Parse("www.example.net"));
  auto glue = Lookup(*zone, *Name::Parse("ns1.example.com"), RRType::kA);
  ASSERT_EQ(glue.answers.size(), 1u);
  EXPECT_EQ(std::get<dns::ARdata>(glue.answers[0].rdatas[0]).address,
            IpAddress(192, 0, 2, 53));

  // A DNSKEY with no key bits has no presentation form: it serializes in
  // the generic form and stays a fixed point of serialize and reparse.
  auto keyed = ParseMasterFile(
      "$ORIGIN example.com.\n@ IN SOA ns1 root 1 2 3 4 5\n"
      "@ IN DNSKEY \\# 4 01010308\n",
      {});
  ASSERT_TRUE(keyed.ok()) << keyed.error().ToString();
  const dns::RRset* dnskey =
      keyed->FindRRset(*Name::Parse("example.com"), RRType::kDNSKEY);
  ASSERT_NE(dnskey, nullptr);
  EXPECT_EQ(std::get<dns::DnskeyRdata>(dnskey->rdatas[0]).flags, 0x0101);
  std::string text = SerializeZone(*keyed);
  auto reparsed = ParseMasterFile(text, {});
  ASSERT_TRUE(reparsed.ok()) << text;
  EXPECT_EQ(SerializeZone(*reparsed), text);

  for (const char* bad : {"x IN CNAME \\# 3 010203\n",  // name overruns
                          "x IN A \\# 5 c000023500\n",   // trailing octet
                          "x IN MX \\# 2 000a\n"}) {    // no exchange
    auto rejected = ParseMasterFile(
        std::string("$ORIGIN example.com.\n@ IN SOA ns1 root 1 2 3 4 5\n") +
            bad,
        {});
    EXPECT_FALSE(rejected.ok()) << bad;
  }
}

TEST(MasterFileAdversarial, TrailingBackslashAtEndOfLine) {
  auto zone = ParseMasterFile(
      "$ORIGIN example.com.\n@ IN SOA ns1 root 1 2 3 4 5\n"
      "www IN A 192.0.2.1\\\n",
      {});
  ASSERT_FALSE(zone.ok());
  EXPECT_EQ(zone.error().code(), ErrorCode::kParseError);
}

TEST(MasterFileAdversarial, UnterminatedQuotedString) {
  auto zone = ParseMasterFile(
      "$ORIGIN example.com.\n@ IN SOA ns1 root 1 2 3 4 5\n"
      "t IN TXT \"no closing quote\n",
      {});
  ASSERT_FALSE(zone.ok());
  EXPECT_EQ(zone.error().code(), ErrorCode::kParseError);
}

TEST(MasterFileAdversarial, BackslashAtEndOfQuotedString) {
  auto zone = ParseMasterFile("t IN TXT \"dangling\\\n", {});
  ASSERT_FALSE(zone.ok());
  EXPECT_EQ(zone.error().code(), ErrorCode::kParseError);
}

TEST(MasterFileAdversarial, DirectiveWithJunkArguments) {
  EXPECT_FALSE(ParseMasterFile("$ORIGIN one two\n", {}).ok());
  EXPECT_FALSE(ParseMasterFile("$TTL soon\n@ IN A 192.0.2.1\n", {}).ok());
  EXPECT_FALSE(ParseMasterFile("$GENERATE 1-10 host$ A 192.0.2.$\n", {}).ok());
}

TEST(MasterFileAdversarial, TtlOverflowRejected) {
  auto by_directive = ParseMasterFile(
      "$TTL 4294967296\n$ORIGIN example.com.\n@ IN A 192.0.2.1\n", {});
  ASSERT_FALSE(by_directive.ok());
  EXPECT_EQ(by_directive.error().code(), ErrorCode::kOutOfRange);

  auto by_record = ParseMasterFile(
      "$ORIGIN example.com.\n@ 4294967296 IN A 192.0.2.1\n", {});
  ASSERT_FALSE(by_record.ok());
  EXPECT_EQ(by_record.error().code(), ErrorCode::kOutOfRange);
}

TEST(MasterFileAdversarial, OversizedTokenRejected) {
  std::string text = "$ORIGIN example.com.\n@ IN TXT \"";
  text.append(300 * 1024, 'x');
  text += "\"\n";
  auto zone = ParseMasterFile(text, {});
  ASSERT_FALSE(zone.ok());
  EXPECT_EQ(zone.error().code(), ErrorCode::kParseError);
}

// Regression (found by fuzz_zone): an owner label "$" serialized bare and
// the reparse rejected the line as an unknown $-directive. Serialized
// names must re-tokenize as exactly one name token.
TEST(MasterFileAdversarial, DollarOwnerRoundTrips) {
  auto zone = ParseMasterFile("$ IN CNAME mp\n", {});
  ASSERT_TRUE(zone.ok()) << zone.error().ToString();
  std::string first = SerializeZone(*zone);
  auto reparsed = ParseMasterFile(first, {});
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().ToString();
  EXPECT_EQ(SerializeZone(*reparsed), first);
}

}  // namespace
}  // namespace ldp::zone
