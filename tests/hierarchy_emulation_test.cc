// End-to-end validation of the paper's core technique (§2.4): a single
// meta-DNS-server with split-horizon views plus two address-rewriting
// proxies must be indistinguishable — same answers, same query sequence —
// from a fully distributed hierarchy with one server per nameserver
// address. Also demonstrates the failure mode the technique exists to fix:
// one server holding all zones *without* views short-circuits the
// hierarchy.
#include <gtest/gtest.h>

#include "proxy/proxy.h"
#include "resolver/resolver.h"
#include "server/sim_server.h"
#include "workload/hierarchy.h"

namespace ldp {
namespace {

struct Answer {
  dns::Rcode rcode;
  std::vector<dns::ResourceRecord> answers;
  uint64_t upstream_queries;
};

workload::Hierarchy MakeHierarchy() {
  workload::HierarchyConfig config;
  config.n_tlds = 4;
  config.n_slds_per_tld = 3;
  return workload::BuildHierarchy(config);
}

// Baseline: the "real Internet" — every nameserver address is its own node.
class DistributedWorld {
 public:
  explicit DistributedWorld(const workload::Hierarchy& hierarchy)
      : net_(sim_) {
    net_.SetDefaultOneWayDelay(Millis(1));
    for (const auto& [address, origin] : hierarchy.address_to_zone) {
      zone::ZoneSet set;
      for (const auto& zone : hierarchy.AllZones()) {
        if (zone->origin() == origin) {
          EXPECT_TRUE(set.AddZone(zone).ok());
          break;
        }
      }
      servers_.push_back(
          server::MakeAuthoritativeNode(net_, address, std::move(set)));
      EXPECT_NE(servers_.back(), nullptr);
    }
    resolver::ResolverConfig config;
    config.address = IpAddress(10, 0, 0, 2);
    config.root_hints = hierarchy.nameservers.at(dns::Name::Root());
    resolver_ = std::make_unique<resolver::SimResolver>(net_, config);
    EXPECT_TRUE(resolver_->Start().ok());
  }

  Answer Resolve(const dns::Name& name, dns::RRType type) {
    uint64_t before = resolver_->stats().upstream_queries;
    std::optional<dns::Message> result;
    resolver_->Resolve(name, type, [&](const dns::Message& response) {
      result = response;
    });
    sim_.Run();
    EXPECT_TRUE(result.has_value());
    return Answer{result->rcode, result->answers,
                  resolver_->stats().upstream_queries - before};
  }

 private:
  sim::Simulator sim_;
  sim::SimNetwork net_;
  std::vector<std::unique_ptr<server::SimDnsServer>> servers_;
  std::unique_ptr<resolver::SimResolver> resolver_;
};

// The LDplayer testbed: one meta-DNS-server + proxies.
class EmulatedWorld {
 public:
  EmulatedWorld(const workload::Hierarchy& hierarchy, bool use_views,
                bool use_proxies)
      : net_(sim_) {
    net_.SetDefaultOneWayDelay(Millis(1));

    zone::ViewTable views;
    if (use_views) {
      // One view per zone, matched by that zone's public NS addresses —
      // after the recursive proxy rewrite, the query source *is* the OQDA.
      for (const auto& zone : hierarchy.AllZones()) {
        zone::ZoneSet set;
        EXPECT_TRUE(set.AddZone(zone).ok());
        EXPECT_TRUE(views
                        .AddView(zone->origin().ToString(),
                                 hierarchy.nameservers.at(zone->origin()),
                                 std::move(set))
                        .ok());
      }
    } else {
      // The naive setup the paper warns about: all zones, one view.
      zone::ZoneSet set;
      for (const auto& zone : hierarchy.AllZones()) {
        EXPECT_TRUE(set.AddZone(zone).ok());
      }
      views.SetDefaultView(std::move(set));
    }

    auto engine =
        std::make_shared<server::AuthServerEngine>(std::move(views));
    server::SimDnsServer::Config config;
    config.address = meta_addr_;
    meta_server_ =
        std::make_unique<server::SimDnsServer>(net_, engine, config);
    EXPECT_TRUE(meta_server_->Start().ok());

    resolver::ResolverConfig rconfig;
    rconfig.address = resolver_addr_;
    rconfig.root_hints = hierarchy.nameservers.at(dns::Name::Root());
    if (!use_proxies) {
      // Without the proxy redirect the hierarchy addresses are dead; point
      // the resolver straight at the meta server instead (the other naive
      // topology: "just use it as a forwarder target").
      rconfig.root_hints = {meta_addr_};
    }
    resolver_ = std::make_unique<resolver::SimResolver>(net_, rconfig);
    EXPECT_TRUE(resolver_->Start().ok());

    if (use_proxies) {
      recursive_proxy_ = std::make_unique<proxy::RecursiveProxy>(
          net_, resolver_addr_, meta_addr_);
      authoritative_proxy_ = std::make_unique<proxy::AuthoritativeProxy>(
          net_, meta_addr_, resolver_addr_);
    }
  }

  Answer Resolve(const dns::Name& name, dns::RRType type) {
    uint64_t before = resolver_->stats().upstream_queries;
    std::optional<dns::Message> result;
    resolver_->Resolve(name, type, [&](const dns::Message& response) {
      result = response;
    });
    sim_.Run();
    EXPECT_TRUE(result.has_value());
    return Answer{result.has_value() ? result->rcode : dns::Rcode::kServFail,
                  result.has_value() ? result->answers
                                     : std::vector<dns::ResourceRecord>{},
                  resolver_->stats().upstream_queries - before};
  }

  uint64_t proxy_rewrites() const {
    return (recursive_proxy_ != nullptr
                ? recursive_proxy_->stats().rewritten
                : 0) +
           (authoritative_proxy_ != nullptr
                ? authoritative_proxy_->stats().rewritten
                : 0);
  }

 private:
  sim::Simulator sim_;
  sim::SimNetwork net_;
  IpAddress meta_addr_{10, 0, 0, 50};
  IpAddress resolver_addr_{10, 0, 0, 2};
  std::unique_ptr<server::SimDnsServer> meta_server_;
  std::unique_ptr<resolver::SimResolver> resolver_;
  std::unique_ptr<proxy::RecursiveProxy> recursive_proxy_;
  std::unique_ptr<proxy::AuthoritativeProxy> authoritative_proxy_;
};

TEST(HierarchyEmulation, MetaServerMatchesDistributedHierarchy) {
  auto hierarchy = MakeHierarchy();
  DistributedWorld real(hierarchy);
  EmulatedWorld emulated(hierarchy, /*use_views=*/true, /*use_proxies=*/true);

  // Positive, NXDOMAIN, and NODATA queries all answer identically, with the
  // same number of upstream round trips (same cache-fill behaviour).
  std::vector<std::pair<dns::Name, dns::RRType>> probes;
  probes.emplace_back(hierarchy.hostnames[0], dns::RRType::kA);
  probes.emplace_back(hierarchy.hostnames[1], dns::RRType::kA);
  probes.emplace_back(hierarchy.hostnames[0], dns::RRType::kTXT);
  probes.emplace_back(*dns::Name::Parse("missing.com"), dns::RRType::kA);
  probes.emplace_back(*dns::Name::Parse("nosuchtld-xyz"), dns::RRType::kA);

  for (const auto& [name, type] : probes) {
    Answer from_real = real.Resolve(name, type);
    Answer from_emulated = emulated.Resolve(name, type);
    EXPECT_EQ(from_real.rcode, from_emulated.rcode) << name.ToString();
    EXPECT_EQ(from_real.answers, from_emulated.answers) << name.ToString();
    EXPECT_EQ(from_real.upstream_queries, from_emulated.upstream_queries)
        << name.ToString();
  }
  EXPECT_GT(emulated.proxy_rewrites(), 0u);
}

TEST(HierarchyEmulation, ColdCacheWalkIsThreeLevels) {
  auto hierarchy = MakeHierarchy();
  EmulatedWorld emulated(hierarchy, true, true);
  Answer answer = emulated.Resolve(hierarchy.hostnames[0], dns::RRType::kA);
  EXPECT_EQ(answer.rcode, dns::Rcode::kNoError);
  ASSERT_FALSE(answer.answers.empty());
  // root referral + TLD referral + SLD answer: the emulated hierarchy must
  // NOT collapse into one round trip.
  EXPECT_EQ(answer.upstream_queries, 3u);
}

TEST(HierarchyEmulation, NaiveSingleServerShortCircuitsHierarchy) {
  // The paper's motivating failure: all zones on one server without views.
  // The deepest zone answers directly — one query, no referrals — which is
  // exactly the distortion LDplayer's views + proxies eliminate.
  auto hierarchy = MakeHierarchy();
  EmulatedWorld naive(hierarchy, /*use_views=*/false, /*use_proxies=*/false);
  Answer answer = naive.Resolve(hierarchy.hostnames[0], dns::RRType::kA);
  EXPECT_EQ(answer.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(answer.upstream_queries, 1u);  // hierarchy collapsed!
}

TEST(HierarchyEmulation, WarmCacheBehaviourPreserved) {
  auto hierarchy = MakeHierarchy();
  DistributedWorld real(hierarchy);
  EmulatedWorld emulated(hierarchy, true, true);

  // Two hostnames in the same SLD zone: the second resolve should cost
  // exactly one upstream query in both worlds.
  dns::Name first = hierarchy.hostnames[0];
  dns::Name second = hierarchy.hostnames[1];
  real.Resolve(first, dns::RRType::kA);
  emulated.Resolve(first, dns::RRType::kA);
  Answer real_second = real.Resolve(second, dns::RRType::kA);
  Answer emulated_second = emulated.Resolve(second, dns::RRType::kA);
  EXPECT_EQ(real_second.upstream_queries, 1u);
  EXPECT_EQ(emulated_second.upstream_queries, 1u);
  EXPECT_EQ(real_second.answers, emulated_second.answers);
}

}  // namespace
}  // namespace ldp
