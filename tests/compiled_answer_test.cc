// Differential test of the compiled answer path: for every query shape
// dns::ParseWireQuery accepts, AuthServerEngine::HandleWire (cache off and
// on) and HandleStream must return exactly the bytes of the reference path,
// zone::BuildResponse(...).Encode(limit) (compiled_oracle.h), and count
// what the reference responses say they are.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <optional>
#include <string>
#include <vector>

#include "compiled_oracle.h"
#include "server/engine.h"
#include "workload/hierarchy.h"
#include "zone/dnssec.h"
#include "zone/masterfile.h"

namespace ldp {
namespace {

// One query's EDNS shape, qname case and transport limit.
struct Variant {
  std::optional<uint16_t> payload;  // EDNS advertised size; none = no OPT
  bool do_bit = false;
  bool mixed_case = false;
  size_t udp_limit = 0;
};

std::vector<Variant> AllVariants() {
  std::vector<Variant> out;
  std::vector<std::pair<std::optional<uint16_t>, bool>> edns = {
      {std::nullopt, false}, {512, false},  {512, true}, {1232, false},
      {1232, true},          {4096, false}, {4096, true}};
  for (const auto& [payload, do_bit] : edns) {
    for (bool mixed : {false, true}) {
      for (size_t limit : {0, 512, 1232, 65535}) {
        out.push_back(Variant{payload, do_bit, mixed, limit});
      }
    }
  }
  return out;
}

// 0x20-style case mixing: alternate upper and lower case by position.
dns::Name MixCase(const dns::Name& name) {
  std::vector<std::string> labels = name.labels();
  size_t i = 0;
  for (auto& label : labels) {
    for (char& c : label) {
      unsigned char u = static_cast<unsigned char>(c);
      c = static_cast<char>(i++ % 2 ? std::toupper(u) : std::tolower(u));
    }
  }
  return *dns::Name::FromLabels(std::move(labels));
}

Bytes MakeQuery(const dns::Name& name, dns::RRType type, const Variant& v,
                uint16_t id) {
  auto query = dns::Message::MakeQuery(v.mixed_case ? MixCase(name) : name,
                                       type, /*recursion_desired=*/id % 2);
  query.id = id;
  if (v.payload.has_value()) {
    query.edns = dns::Edns{.udp_payload_size = *v.payload,
                           .do_bit = v.do_bit};
  }
  return query.Encode();
}

std::string Describe(const dns::Name& name, dns::RRType type,
                     const Variant& v, IpAddress source) {
  std::string edns = v.payload.has_value()
                         ? "edns=" + std::to_string(*v.payload) +
                               (v.do_bit ? "+do" : "")
                         : "no-edns";
  return name.ToString() + " " + dns::RRTypeToString(type) + " " + edns +
         (v.mixed_case ? " 0x20" : "") +
         " limit=" + std::to_string(v.udp_limit) + " from " +
         source.ToString();
}

// Runs queries through a cache-off engine, a cached engine and the stream
// path, comparing each response with the reference bytes.
class Differential {
 public:
  explicit Differential(zone::ViewTable views)
      : views_(std::make_shared<const zone::ViewTable>(std::move(views))),
        plain_(views_),
        cached_(views_, server::EngineOptions{1 << 16}) {}

  void Check(const dns::Name& name, dns::RRType type, const Variant& v,
             IpAddress source) {
    Bytes wire = MakeQuery(name, type, v, static_cast<uint16_t>(checks_));
    ++checks_;
    auto expected =
        oracle::ReferenceResponse(*views_, wire, source, v.udp_limit);
    ASSERT_TRUE(expected.has_value());
    uint8_t rcode = (*expected)[3] & 0x0f;
    bool tc = (*expected)[2] & 0x02;
    ++expected_queries_;
    if (rcode == 3) ++expected_nxdomain_;
    if (rcode == 5) ++expected_refused_;
    if (tc) ++expected_truncated_;

    std::string what = Describe(name, type, v, source);
    Compare(*expected, plain_.HandleWire(wire, source, v.udp_limit),
            what + " [HandleWire]");
    // Cached: the miss is stored, the hit is a patched copy of it.
    for (int pass = 0; pass < 2; ++pass) {
      Compare(*expected, cached_.HandleWire(wire, source, v.udp_limit),
              what + " [cached pass " + std::to_string(pass) + "]");
    }
    if (v.udp_limit == 0) {
      auto stream = plain_.HandleStream(wire, source);
      ASSERT_TRUE(stream.ok());
      ASSERT_EQ(stream->size(), 1u);
      Compare(*expected, stream->front(), what + " [HandleStream]");
      ++expected_queries_;
      if (rcode == 3) ++expected_nxdomain_;
      if (rcode == 5) ++expected_refused_;
    }
  }

  // Every EngineStats counter of the cache-off engine agrees with what the
  // reference responses were.
  void ExpectCounters() const {
    server::EngineStats stats = plain_.stats();
    EXPECT_EQ(stats.queries, expected_queries_);
    EXPECT_EQ(stats.responses, expected_queries_);
    EXPECT_EQ(stats.nxdomain, expected_nxdomain_);
    EXPECT_EQ(stats.refused, expected_refused_);
    EXPECT_EQ(stats.truncated, expected_truncated_);
    EXPECT_EQ(stats.dropped, 0u);
  }

  const zone::ViewTable& views() const { return *views_; }
  size_t checks() const { return checks_; }
  size_t mismatches() const { return mismatches_; }
  uint64_t nxdomain() const { return expected_nxdomain_; }
  uint64_t refused() const { return expected_refused_; }
  uint64_t truncated() const { return expected_truncated_; }

 private:
  void Compare(const Bytes& expected, const Result<Bytes>& actual,
               const std::string& what) {
    if (!actual.ok()) {
      Report(what + ": " + actual.error().ToString());
      return;
    }
    Compare(expected, *actual, what);
  }
  void Compare(const Bytes& expected, const Bytes& actual,
               const std::string& what) {
    if (expected == actual) return;
    size_t at = 0;
    while (at < expected.size() && at < actual.size() &&
           expected[at] == actual[at]) {
      ++at;
    }
    Report(what + ": differs at byte " + std::to_string(at) + " (sizes " +
           std::to_string(expected.size()) + " vs " +
           std::to_string(actual.size()) + ")\nexpected " +
           HexDump(expected) + "\nactual   " + HexDump(actual));
  }
  void Report(const std::string& message) {
    if (mismatches_++ < 5) ADD_FAILURE() << message;
  }

  std::shared_ptr<const zone::ViewTable> views_;
  server::AuthServerEngine plain_;
  server::AuthServerEngine cached_;
  size_t checks_ = 0;
  size_t mismatches_ = 0;
  uint64_t expected_queries_ = 0;
  uint64_t expected_nxdomain_ = 0;
  uint64_t expected_refused_ = 0;
  uint64_t expected_truncated_ = 0;
};

const std::vector<dns::RRType> kQtypes = {
    dns::RRType::kA,     dns::RRType::kAAAA,  dns::RRType::kNS,
    dns::RRType::kSOA,   dns::RRType::kCNAME, dns::RRType::kMX,
    dns::RRType::kTXT,   dns::RRType::kSRV,   dns::RRType::kPTR,
    dns::RRType::kDS,    dns::RRType::kANY,   dns::RRType::kRRSIG,
    dns::RRType::kNSEC,  dns::RRType::kDNSKEY};

// Every owner in the zone, a missing child of each, and a few names the
// zone does not hold at all.
std::vector<dns::Name> ProbeNames(const zone::Zone& zone) {
  std::vector<dns::Name> names;
  zone.ForEachRRset([&](const dns::RRset& rrset) {
    if (!names.empty() && names.back() == rrset.name) return;
    names.push_back(rrset.name);
  });
  size_t owners = names.size();
  for (size_t i = 0; i < owners; ++i) {
    if (auto child = names[i].Child("zz-missing"); child.ok()) {
      names.push_back(*child);
    }
  }
  for (const char* text : {"no-such-name", "x.y.no-such-name"}) {
    auto below = dns::Name::Parse(std::string(text) + "." +
                                  zone.origin().ToString());
    if (below.ok()) names.push_back(*below);
  }
  if (owners == 0) names.push_back(zone.origin());
  return names;
}

// Every name × every qtype under a rotating subset of variants, and every
// `full_every`-th name under the whole variant matrix.
void CheckZone(Differential& diff, const zone::Zone& zone, IpAddress source,
               size_t full_every) {
  const std::vector<Variant> variants = AllVariants();
  std::vector<dns::Name> names = ProbeNames(zone);
  for (size_t n = 0; n < names.size(); ++n) {
    for (size_t t = 0; t < kQtypes.size(); ++t) {
      if (n % full_every == 0) {
        for (const Variant& v : variants) {
          diff.Check(names[n], kQtypes[t], v, source);
        }
        continue;
      }
      for (size_t k = 0; k < 3; ++k) {
        const Variant& v = variants[(n * 31 + t * 7 + k * 19) % variants.size()];
        diff.Check(names[n], kQtypes[t], v, source);
      }
    }
  }
}

zone::ZonePtr ParseZone(const std::string& text) {
  auto zone = zone::ParseMasterFile(text, zone::MasterFileOptions{});
  EXPECT_TRUE(zone.ok()) << (zone.ok() ? "" : zone.error().ToString());
  return std::make_shared<zone::Zone>(std::move(*zone));
}

// Wildcards (plain, CNAME, CNAME out of zone), empty non-terminals, CNAME
// chains in and out of the zone and in a loop, a signed-style cut with DS
// and occluded data, MX/SRV/NS additional processing, owner-case mixing
// within one node, and a label holding a dot.
std::string EdgeZoneText(const std::string& origin, bool apex_wildcard) {
  std::string text = "$ORIGIN " + origin +
                     "\n"
                     "$TTL 300\n"
                     "@ 3600 IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
                     "@ IN NS ns1\n"
                     "@ IN NS ns2.elsewhere.test.\n"
                     "@ IN MX 10 mail\n"
                     "@ IN MX 20 mail.elsewhere.test.\n"
                     "@ IN MX 30 host\n"
                     "ns1 IN A 192.0.2.1\n"
                     "ns1 IN AAAA 2001:db8::1\n"
                     "mail IN A 192.0.2.25\n"
                     "www IN CNAME host\n"
                     "host IN A 192.0.2.80\n"
                     "host IN AAAA 2001:db8::80\n"
                     "chain IN CNAME www\n"
                     "out IN CNAME www.elsewhere.test.\n"
                     "loop1 IN CNAME loop2\n"
                     "loop2 IN CNAME LOOP1\n"
                     "dangling IN CNAME nothere\n"
                     "towild IN CNAME foo.wc\n"
                     "*.wc IN A 192.0.2.99\n"
                     "*.wc IN TXT \"wild\"\n"
                     "*.wcn IN CNAME host\n"
                     "*.wcout IN CNAME target.elsewhere.test.\n"
                     "*.wcloop IN CNAME x.wcloop\n"
                     "a.b.c.ent IN A 192.0.2.7\n"
                     "sub IN NS ns.sub\n"
                     "sub IN NS ns1\n"
                     "sub IN DS 12345 8 2 "
                     "49FD46E6C4B45C55D4AC69CBD3CD34AC1AFE51DE\n"
                     "ns.sub IN A 192.0.2.53\n"
                     "deep.sub IN A 192.0.2.54\n"
                     "nods IN NS ns.nods\n"
                     "ns.nods IN AAAA 2001:db8::53\n"
                     "_sip._tcp IN SRV 10 60 5060 host\n"
                     "_sip._tcp IN SRV 20 60 5060 mail\n"
                     "MiXeD IN A 192.0.2.3\n"
                     "mixed IN AAAA 2001:db8::3\n"
                     "mixed IN MX 5 MAIL\n"
                     "ptr IN PTR host\n"
                     "txt IN TXT \"a\" \"b c\"\n"
                     "a\\.b IN A 192.0.2.11\n"
                     "a.b IN A 192.0.2.12\n"
                     "b IN CNAME a\\.b\n";
  if (apex_wildcard) text += "* IN TXT \"apex wildcard\"\n";
  return text;
}

zone::ZonePtr EdgeZone(const std::string& origin, bool apex_wildcard,
                       bool sign) {
  zone::ZonePtr zone = ParseZone(EdgeZoneText(origin, apex_wildcard));
  if (sign) {
    EXPECT_TRUE(zone::SignZone(*zone, zone::DnssecConfig{}).ok());
  }
  return zone;
}

TEST(CompiledAnswer, SignedRootMatchesReference) {
  auto root = workload::BuildRootHierarchy(100, /*sign=*/true,
                                           zone::DnssecConfig{});
  zone::ZoneSet set;
  ASSERT_TRUE(set.AddZone(root.root).ok());
  zone::ViewTable views;
  views.SetDefaultView(std::move(set));
  Differential diff(std::move(views));
  CheckZone(diff, *root.root, IpAddress(10, 0, 0, 1), /*full_every=*/29);
  // Names outside every TLD: the NXDOMAIN bulk of B-Root traffic.
  for (const char* junk : {"qwzxv", "localdomain", "a.b.c.home", "LAN"}) {
    for (const Variant& v : AllVariants()) {
      diff.Check(*dns::Name::Parse(junk), dns::RRType::kA, v,
                 IpAddress(10, 0, 0, 1));
    }
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checks() << " checks";
  EXPECT_GT(diff.nxdomain(), 0u);
  EXPECT_GT(diff.truncated(), 0u);
  diff.ExpectCounters();
}

TEST(CompiledAnswer, HierarchyMultiZoneLongestMatch) {
  workload::HierarchyConfig config;
  config.n_tlds = 4;
  config.n_slds_per_tld = 3;
  config.n_hosts_per_sld = 3;
  config.sign_root = true;
  auto hierarchy = workload::BuildHierarchy(config);
  zone::ZoneSet set;
  for (const auto& zone : hierarchy.AllZones()) {
    ASSERT_TRUE(set.AddZone(zone).ok());
  }
  zone::ViewTable views;
  views.SetDefaultView(std::move(set));
  Differential diff(std::move(views));
  for (const auto& zone : hierarchy.AllZones()) {
    CheckZone(diff, *zone, IpAddress(10, 0, 0, 2), /*full_every=*/17);
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checks() << " checks";
  diff.ExpectCounters();
}

TEST(CompiledAnswer, SplitHorizonWithoutDefaultView) {
  workload::HierarchyConfig config;
  config.n_tlds = 3;
  config.n_slds_per_tld = 2;
  config.n_hosts_per_sld = 2;
  auto hierarchy = workload::BuildHierarchy(config);
  zone::ViewTable views;
  for (const auto& zone : hierarchy.AllZones()) {
    zone::ZoneSet set;
    ASSERT_TRUE(set.AddZone(zone).ok());
    ASSERT_TRUE(views
                    .AddView(zone->origin().ToString(),
                             hierarchy.nameservers.at(zone->origin()),
                             std::move(set))
                    .ok());
  }
  Differential diff(std::move(views));
  // Each zone's names asked of its own nameserver, of the root's (names
  // below a cut get referrals), and of an address no view matches
  // (REFUSED: there is no default view).
  IpAddress root_ns = hierarchy.nameservers.at(hierarchy.root->origin())[0];
  for (const auto& zone : hierarchy.AllZones()) {
    IpAddress own = hierarchy.nameservers.at(zone->origin())[0];
    for (IpAddress source : {own, root_ns, IpAddress(10, 9, 9, 9)}) {
      CheckZone(diff, *zone, source, /*full_every=*/23);
    }
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checks() << " checks";
  EXPECT_GT(diff.refused(), 0u);
  diff.ExpectCounters();
}

// Every owner name of `zone` and every empty non-terminal between an owner
// and the origin.
std::vector<dns::Name> OwnersAndEmptyNonTerminals(const zone::Zone& zone) {
  std::vector<dns::Name> names;
  zone.ForEachRRset([&](const dns::RRset& rrset) {
    if (!names.empty() && names.back() == rrset.name) return;
    names.push_back(rrset.name);
  });
  const size_t owners = names.size();
  for (size_t i = 0; i < owners; ++i) {
    for (auto up = names[i].Parent();
         up.ok() && up->IsSubdomainOf(zone.origin()) && !(*up == zone.origin());
         up = up->Parent()) {
      if (!zone.HasNode(*up) &&
          std::find(names.begin() + owners, names.end(), *up) == names.end()) {
        names.push_back(*up);
      }
    }
  }
  return names;
}

// The benchmark's hierarchy shape (BuildHierarchy 20 x 27 x 4: 561 zones),
// one view per zone and no default view, as its meta server holds them.
// Every owner and empty non-terminal of every zone, and a missing name
// below each, for every type present plus A, AAAA, NS, SOA, MX and DS, with
// DO on and off, at UDP limits 512 and 4096, asked of the zone's own view;
// and each once more of its parent zone's view (a referral) or, for the
// root's names, of an address no view matches (REFUSED).
TEST(CompiledAnswer, BenchHierarchyShapeSweep) {
  workload::HierarchyConfig config;
  config.n_tlds = 20;
  config.n_slds_per_tld = 27;
  config.n_hosts_per_sld = 4;
  config.ns_per_zone = 2;
  auto hierarchy = workload::BuildHierarchy(config);
  const std::vector<zone::ZonePtr> zones = hierarchy.AllZones();
  ASSERT_EQ(zones.size(), 561u);
  zone::ViewTable views;
  for (const auto& zone : zones) {
    zone::ZoneSet set;
    ASSERT_TRUE(set.AddZone(zone).ok());
    ASSERT_TRUE(views
                    .AddView(zone->origin().ToString(),
                             hierarchy.nameservers.at(zone->origin()),
                             std::move(set))
                    .ok());
  }
  Differential diff(std::move(views));
  const std::vector<dns::RRType> always = {
      dns::RRType::kA,   dns::RRType::kAAAA, dns::RRType::kNS,
      dns::RRType::kSOA, dns::RRType::kMX,   dns::RRType::kDS};
  for (const auto& zone : zones) {
    const IpAddress own = hierarchy.nameservers.at(zone->origin())[0];
    const IpAddress other =
        zone->origin().IsRoot()
            ? IpAddress(10, 9, 9, 9)
            : hierarchy.nameservers.at(*zone->origin().Parent())[0];
    auto check = [&](const dns::Name& name,
                     const std::vector<dns::RRType>& types) {
      for (dns::RRType type : types) {
        for (bool do_bit : {false, true}) {
          for (size_t limit : {512, 4096}) {
            diff.Check(name, type, Variant{4096, do_bit, false, limit}, own);
          }
        }
        diff.Check(name, type, Variant{4096, true, false, 4096}, other);
      }
    };
    for (const dns::Name& name : OwnersAndEmptyNonTerminals(*zone)) {
      std::vector<dns::RRType> types = always;
      for (const dns::RRset* rrset : zone->FindNode(name)) {
        if (std::find(types.begin(), types.end(), rrset->type) ==
            types.end()) {
          types.push_back(rrset->type);
        }
      }
      check(name, types);
      if (auto missing = name.Child("zz-missing"); missing.ok()) {
        check(*missing, always);
      }
    }
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checks() << " checks";
  EXPECT_GT(diff.nxdomain(), 0u);
  EXPECT_GT(diff.refused(), 0u);
  diff.ExpectCounters();
}

TEST(CompiledAnswer, EdgeZonesMatchReference) {
  std::vector<zone::ZonePtr> zones = {
      EdgeZone("edge.test.", /*apex_wildcard=*/false, /*sign=*/false),
      EdgeZone("wild.test.", /*apex_wildcard=*/true, /*sign=*/false),
      EdgeZone("signed.test.", /*apex_wildcard=*/false, /*sign=*/true),
      EdgeZone("signed-wild.test.", /*apex_wildcard=*/true, /*sign=*/true),
      // Zones some tests build without a SOA, or without any data.
      ParseZone("$ORIGIN nosoa.test.\nwww IN A 192.0.2.1\n"
                "alias IN CNAME www\n*.w IN A 192.0.2.2\n"),
      std::make_shared<zone::Zone>(*dns::Name::Parse("empty.test")),
      // A child zone of edge.test.: the deeper origin wins.
      ParseZone("$ORIGIN sub.edge.test.\n"
                "@ 60 IN SOA ns hostmaster 1 2 3 4 5\n@ IN NS ns\n"
                "ns IN A 192.0.2.53\nwww IN A 192.0.2.200\n"),
  };
  zone::ZoneSet set;
  for (const auto& zone : zones) ASSERT_TRUE(set.AddZone(zone).ok());
  zone::ViewTable views;
  views.SetDefaultView(std::move(set));
  Differential diff(std::move(views));
  for (const auto& zone : zones) {
    CheckZone(diff, *zone, IpAddress(10, 0, 0, 3), /*full_every=*/3);
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checks() << " checks";
  diff.ExpectCounters();
}

// Answers longer than 16 KiB: names written past offset 0x3fff cannot be
// pointed at, so later owners must be written out in full, exactly where
// NameCompressor stops recording.
TEST(CompiledAnswer, AnswersPastThePointerRange) {
  zone::ZonePtr zone = ParseZone(
      "$ORIGIN big.test.\n@ 60 IN SOA ns hostmaster 1 2 3 4 5\n"
      "@ IN NS ns\nns IN A 192.0.2.1\n");
  dns::Name owner = *dns::Name::Parse("mx.big.test");
  for (int i = 0; i < 700; ++i) {
    dns::Name host = *dns::Name::Parse("host" + std::to_string(i) +
                                       ".big.test");
    ASSERT_TRUE(zone->AddRecord({owner, dns::RRType::kMX, dns::RRClass::kIN,
                                 60,
                                 dns::MxRdata{static_cast<uint16_t>(i), host}})
                    .ok());
    ASSERT_TRUE(zone->AddRecord({host, dns::RRType::kA, dns::RRClass::kIN, 60,
                                 dns::ARdata{IpAddress(10, 0, i / 256,
                                                       i % 256)}})
                    .ok());
  }
  zone::ZoneSet set;
  ASSERT_TRUE(set.AddZone(zone).ok());
  zone::ViewTable views;
  views.SetDefaultView(std::move(set));
  Differential diff(std::move(views));
  for (dns::RRType type : {dns::RRType::kMX, dns::RRType::kANY}) {
    for (const Variant& v : AllVariants()) {
      diff.Check(owner, type, v, IpAddress(10, 0, 0, 5));
    }
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checks() << " checks";
  diff.ExpectCounters();
}

TEST(CompiledAnswer, TruncatesAtEveryRecordBoundary) {
  auto root = workload::BuildRootHierarchy(20, /*sign=*/true,
                                           zone::DnssecConfig{});
  zone::ZoneSet set;
  ASSERT_TRUE(set.AddZone(root.root).ok());
  ASSERT_TRUE(set.AddZone(EdgeZone("signed.test.", true, true)).ok());
  zone::ViewTable views;
  views.SetDefaultView(std::move(set));
  Differential diff(std::move(views));
  IpAddress source(10, 0, 0, 4);

  struct Probe {
    const char* name;
    dns::RRType type;
  };
  const Probe probes[] = {
      {".", dns::RRType::kANY},          {".", dns::RRType::kDNSKEY},
      {"www.com", dns::RRType::kA},      {"nosuchtld", dns::RRType::kA},
      {"signed.test", dns::RRType::kMX}, {"x.wc.signed.test", dns::RRType::kA},
      {"signed.test", dns::RRType::kANY},
  };
  for (const Probe& probe : probes) {
    dns::Name name = *dns::Name::Parse(probe.name);
    for (std::optional<uint16_t> payload :
         {std::optional<uint16_t>(4096), std::optional<uint16_t>()}) {
      // Every limit up to the whole response, so every record boundary
      // (and every byte inside a record) is a cut point once.
      Variant v{payload, payload.has_value(), false, dns::kMaxMessageSize};
      auto whole = oracle::ReferenceResponse(
          diff.views(), MakeQuery(name, probe.type, v, 0), source,
          v.udp_limit);
      ASSERT_TRUE(whole.has_value());
      for (size_t limit = 1; limit <= whole->size() + 1; ++limit) {
        v.udp_limit = limit;
        diff.Check(name, probe.type, v, source);
      }
    }
  }
  EXPECT_EQ(diff.mismatches(), 0u) << "of " << diff.checks() << " checks";
  EXPECT_GT(diff.truncated(), 0u);
  diff.ExpectCounters();
}

}  // namespace
}  // namespace ldp
