// Scenario pack (paper §1/§5 application list): the attack and anycast
// what-ifs LDplayer is pitched for, run end-to-end over real sockets —
// replay → hierarchy proxy → sharded meta server on loopback — with the
// legitimate traffic's experience and the attack's cost both measured.
//
// Five phases, one BENCH_scenarios.json:
//   baseline    legit trace only; the answered-rate/latency yardstick
//   nxdomain    random-subdomain flood; response-cache hit rate collapses
//   amp         DNSSEC ANY/DNSKEY flood; amplification factor (bytes
//               out/in) from the same engine code path the server runs
//   spoofed     socket-rotating spoofed-source flood through the proxy;
//               reclaimed slots + evicted_drops while legit rides along
//   anycast     three-site catchment map with skewed client groups and
//               per-site reply-path RTT; load shares + RTT-shifted latency
//
// The scenario cookbook in EXPERIMENTS.md reproduces each phase with the
// standalone tools (ldp_mutate_trace --attack, ldp_proxy --sites).
#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "mutate/attack.h"
#include "mutate/mutate.h"
#include "proxy/relay.h"
#include "replay/realtime.h"
#include "scenario/scenario.h"
#include "server/sharded_server.h"
#include "trace/record.h"

using namespace ldp;

namespace {

constexpr int64_t kLegitQps = 4000;
constexpr double kDurationS = 2.0;

// Engine-stat delta between two cumulative snapshots (the fields the
// scenarios read; EngineStats has += but no -).
struct EngineDelta {
  uint64_t queries = 0;
  uint64_t nxdomain = 0;
  uint64_t response_bytes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;

  double hit_rate() const {
    uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }
};

EngineDelta Delta(const server::EngineStats& before,
                  const server::EngineStats& after) {
  EngineDelta d;
  d.queries = after.queries - before.queries;
  d.nxdomain = after.nxdomain - before.nxdomain;
  d.response_bytes = after.response_bytes - before.response_bytes;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.cache_misses = after.cache_misses - before.cache_misses;
  d.cache_evictions = after.cache_evictions - before.cache_evictions;
  return d;
}

// Legitimate stream: leaf A lookups against the public NS addresses (the
// OQDAs), every 7th a delegation NS query — same shape as the hierarchy
// ablation — restamped evenly at kLegitQps.
std::vector<trace::QueryRecord> MakeLegitTrace(
    const workload::Hierarchy& hierarchy, size_t n_queries) {
  std::vector<trace::QueryRecord> records;
  records.reserve(n_queries);
  const NanoDuration step = kNanosPerSecond / kLegitQps;
  for (size_t i = 0; i < n_queries; ++i) {
    trace::QueryRecord record;
    record.src = IpAddress(10, 0, 0, static_cast<uint8_t>(1 + i % 200));
    record.src_port = static_cast<uint16_t>(40000 + i % 20000);
    record.qname = hierarchy.hostnames[i % hierarchy.hostnames.size()];
    auto owner = record.qname.Parent();
    if (!owner.ok()) continue;
    dns::Name target_zone = *owner;
    if (i % 7 == 3) {
      record.qname = target_zone;
      record.qtype = dns::RRType::kNS;
      if (auto parent = target_zone.Parent(); parent.ok()) {
        target_zone = *parent;
      }
    }
    auto ns = hierarchy.nameservers.find(target_zone);
    if (ns == hierarchy.nameservers.end() || ns->second.empty()) continue;
    record.dst = ns->second[i % ns->second.size()];
    record.dst_port = 53;
    record.timestamp = static_cast<NanoTime>(records.size()) * step;
    records.push_back(std::move(record));
  }
  return records;
}

struct Phase {
  scenario::SplitReport split;
  EngineDelta engine;
  replay::RealtimeReport report;
};

// Replays `records` (legit + optional overlay) through the proxy and
// carves the report into classes with `mask`.
std::optional<Phase> RunPhase(std::vector<trace::QueryRecord> records,
                              const std::vector<bool>& mask,
                              const replay::RealtimeConfig& config,
                              const server::ShardedDnsServer& meta) {
  server::EngineStats before = meta.TotalStats();
  auto report = replay::RunRealtimeReplay(records, config);
  if (!report.ok()) {
    std::fprintf(stderr, "replay: %s\n", report.error().ToString().c_str());
    return std::nullopt;
  }
  Phase phase;
  phase.split = scenario::SplitOutcomes(*report, mask);
  phase.engine = Delta(before, meta.TotalStats());
  phase.report = std::move(*report);
  return phase;
}

mutate::AttackConfig BaseAttack(mutate::AttackKind kind,
                                const workload::Hierarchy& hierarchy,
                                double rate_qps) {
  mutate::AttackConfig config;
  config.kind = kind;
  config.rate_qps = rate_qps;
  config.duration = SecondsF(kDurationS);
  config.start = 0;
  // Aim at the root: the signed zone, so NXDOMAINs carry NSEC proofs and
  // ANY/DNSKEY answers carry RRSIGs — the worst (realistic) case.
  config.server = hierarchy.nameservers.at(dns::Name::Root()).front();
  config.seed = 0xa77ac;
  return config;
}

void AddClassRow(stats::Table& table, const std::string& phase,
                 const std::string& klass,
                 const scenario::TrafficClassReport& r) {
  table.AddRow({phase, klass, std::to_string(r.sent),
                FormatDouble(100 * r.answered_rate(), 1) + "%",
                std::to_string(r.timed_out + r.send_failed),
                FormatDouble(r.latency_p50_ms, 2),
                FormatDouble(r.latency_p99_ms, 2)});
}

}  // namespace

int main() {
  bench::PrintHeader("Scenario pack: attack floods + anycast catchment",
                     "replay → proxy → meta server over loopback sockets",
                     "proposed applications (SS1/5) — capability "
                     "demonstration, no paper number to match");

  // --- Shared testbed -------------------------------------------------------
  workload::HierarchyConfig hconfig;
  hconfig.n_tlds = 3;
  hconfig.n_slds_per_tld = 4;
  hconfig.n_hosts_per_sld = 2;
  hconfig.sign_root = true;  // amplification needs a signed victim zone
  auto hierarchy = workload::BuildHierarchy(hconfig);

  zone::ViewTable views;
  zone::ZoneSet all_zones;
  for (const auto& zone : hierarchy.AllZones()) {
    zone::ZoneSet set;
    auto add_ok = set.AddZone(zone);
    (void)add_ok;
    auto all_ok = all_zones.AddZone(zone);
    (void)all_ok;
    std::vector<IpAddress> sources;
    for (IpAddress addr : hierarchy.nameservers.at(zone->origin())) {
      sources.push_back(LoopbackAlias(addr));
    }
    auto view_ok =
        views.AddView(zone->origin().ToString(), sources, std::move(set));
    (void)view_ok;
  }
  views.SetDefaultView(std::move(all_zones));
  auto shared_views = std::make_shared<const zone::ViewTable>(std::move(views));

  server::ShardedDnsServer::Config sconfig;
  sconfig.listen = Endpoint{IpAddress::Loopback(), 0};
  sconfig.n_shards = 2;
  sconfig.serve_tcp = false;
  sconfig.udp_recv_buffer_bytes = 1 << 22;
  sconfig.engine.response_cache_entries = 4096;
  auto meta = server::ShardedDnsServer::Start(shared_views, sconfig);
  if (!meta.ok()) {
    std::fprintf(stderr, "meta server: %s\n", meta.error().ToString().c_str());
    return 1;
  }

  proxy::RelayConfig pconfig;
  for (const auto& [address, origin] : hierarchy.address_to_zone) {
    pconfig.addresses.push_back(LoopbackAlias(address));
  }
  pconfig.meta_server = (*meta)->endpoint();
  pconfig.n_shards = 1;
  pconfig.udp_recv_buffer_bytes = 1 << 22;
  pconfig.splice_tcp = false;
  auto relay = proxy::HierarchyProxy::Start(pconfig);
  if (!relay.ok()) {
    std::fprintf(stderr, "relay: %s\n", relay.error().ToString().c_str());
    return 1;
  }

  const auto legit =
      MakeLegitTrace(hierarchy, static_cast<size_t>(kLegitQps * kDurationS));

  replay::RealtimeConfig rconfig;
  rconfig.server = (*meta)->endpoint();
  rconfig.n_distributors = 1;
  rconfig.queriers_per_distributor = 1;
  rconfig.query_timeout = Millis(300);
  rconfig.max_retransmits = 2;
  rconfig.follow_trace_dst = true;
  rconfig.dst_port_override = (*relay)->port();
  rconfig.loopback_alias_dst = true;

  bench::BenchJson json;
  stats::Table table({"phase", "class", "sent", "answered", "lost",
                      "p50 ms", "p99 ms"});

  // --- Phase 1: no-attack baseline ------------------------------------------
  auto baseline =
      RunPhase(legit, std::vector<bool>(legit.size(), false), rconfig, **meta);
  if (!baseline) return 1;
  AddClassRow(table, "baseline", "legit", baseline->split.legit);
  json.Set("baseline_sent", baseline->split.legit.sent);
  json.Set("baseline_answered_rate", baseline->split.legit.answered_rate());
  json.Set("baseline_p50_ms", baseline->split.legit.latency_p50_ms);
  json.Set("baseline_p99_ms", baseline->split.legit.latency_p99_ms);
  json.Set("baseline_cache_hit_rate", baseline->engine.hit_rate());

  // --- Phase 2: random-subdomain NXDOMAIN flood -----------------------------
  {
    auto records = legit;
    auto attack = mutate::MakeAttackTrace(
        BaseAttack(mutate::AttackKind::kNxdomainFlood, hierarchy, 8000));
    auto mask = mutate::OverlayAttack(records, std::move(attack));
    auto phase = RunPhase(std::move(records), mask, rconfig, **meta);
    if (!phase) return 1;
    AddClassRow(table, "nxdomain", "legit", phase->split.legit);
    AddClassRow(table, "nxdomain", "attack", phase->split.attack);
    json.Set("nxdomain_attack_qps", 8000.0);
    json.Set("nxdomain_legit_answered_rate",
             phase->split.legit.answered_rate());
    json.Set("nxdomain_legit_p50_ms", phase->split.legit.latency_p50_ms);
    json.Set("nxdomain_legit_p99_ms", phase->split.legit.latency_p99_ms);
    json.Set("nxdomain_cache_hit_rate", phase->engine.hit_rate());
    json.Set("nxdomain_cache_evictions", phase->engine.cache_evictions);
    json.Set("nxdomain_served", phase->engine.nxdomain);
    std::printf("nxdomain flood: cache hit rate %.1f%% -> %.1f%% "
                "(%llu evictions, %llu NXDOMAINs served)\n",
                100 * baseline->engine.hit_rate(),
                100 * phase->engine.hit_rate(),
                static_cast<unsigned long long>(phase->engine.cache_evictions),
                static_cast<unsigned long long>(phase->engine.nxdomain));
  }

  // --- Phase 3: DNSSEC amplification flood ----------------------------------
  {
    auto records = legit;
    auto attack = mutate::MakeAttackTrace(
        BaseAttack(mutate::AttackKind::kAmplification, hierarchy, 4000));
    // Offline factor: same queries, same engine code path, byte-exact.
    server::AuthServerEngine offline(shared_views);
    auto amp = scenario::ComputeAmplification(offline, attack);
    auto mask = mutate::OverlayAttack(records, std::move(attack));
    auto phase = RunPhase(std::move(records), mask, rconfig, **meta);
    if (!phase) return 1;
    AddClassRow(table, "amp", "legit", phase->split.legit);
    AddClassRow(table, "amp", "attack", phase->split.attack);
    json.Set("amp_attack_qps", 4000.0);
    json.Set("amp_factor", amp.factor());
    json.Set("amp_query_bytes", amp.query_bytes);
    json.Set("amp_response_bytes", amp.response_bytes);
    json.Set("amp_live_response_bytes", phase->engine.response_bytes);
    json.Set("amp_legit_answered_rate", phase->split.legit.answered_rate());
    json.Set("amp_legit_p99_ms", phase->split.legit.latency_p99_ms);
    std::printf("amplification: ANY/DNSKEY+DO vs signed root -> %.1fx "
                "(%llu query bytes -> %llu response bytes offline; "
                "%llu live response bytes this phase)\n",
                amp.factor(),
                static_cast<unsigned long long>(amp.query_bytes),
                static_cast<unsigned long long>(amp.response_bytes),
                static_cast<unsigned long long>(phase->engine.response_bytes));
  }

  // --- Phase 4: spoofed-source flood ---------------------------------------
  // The socket-rotating flood mints fresh client endpoints; the proxy keeps
  // no per-client state, so each query only takes an ID-ring slot. Slots
  // the meta server leaves unanswered for a whole wrap are reclaimed, and
  // replies to them die as evicted_drops.
  {
    scenario::SpoofedFloodConfig flood;
    flood.target = Endpoint{
        LoopbackAlias(hierarchy.nameservers.at(dns::Name::Root()).front()),
        (*relay)->port()};
    flood.query_wire =
        dns::Message::MakeQuery(dns::Name::Root(), dns::RRType::kNS, false)
            .Encode();
    flood.rate_qps = 20000;
    flood.duration = SecondsF(kDurationS);
    flood.n_sockets = 64;
    flood.rotate_after_sends = 2;

    const proxy::RelayStats before = (*relay)->TotalStats();
    Result<scenario::SpoofedFloodReport> flood_report =
        Error(ErrorCode::kInternal, "flood never ran");
    std::thread flooder([&] { flood_report = scenario::RunSpoofedFlood(flood); });
    auto phase = RunPhase(legit, std::vector<bool>(legit.size(), false),
                          rconfig, **meta);
    flooder.join();
    if (!phase) return 1;
    if (!flood_report.ok()) {
      std::fprintf(stderr, "spoofed flood: %s\n",
                   flood_report.error().ToString().c_str());
      return 1;
    }
    const proxy::RelayStats after = (*relay)->TotalStats();
    const uint64_t reclaimed = after.reclaimed - before.reclaimed;
    const uint64_t drops = after.evicted_drops - before.evicted_drops;
    AddClassRow(table, "spoofed", "legit", phase->split.legit);
    json.Set("spoofed_flood_qps", flood.rate_qps);
    json.Set("spoofed_sent", flood_report->sent);
    json.Set("spoofed_client_endpoints", flood_report->sockets_opened);
    json.Set("spoofed_flood_replies", flood_report->replies);
    json.Set("spoofed_reclaimed", reclaimed);
    json.Set("spoofed_evicted_drops", drops);
    json.Set("spoofed_legit_answered_rate", phase->split.legit.answered_rate());
    json.Set("spoofed_legit_p99_ms", phase->split.legit.latency_p99_ms);
    std::printf("spoofed flood: %llu queries from %llu rotating endpoints "
                "-> %llu replies; legit answered %.1f%%, p99 %.2f ms; "
                "%llu slots reclaimed, %llu replies dropped\n",
                static_cast<unsigned long long>(flood_report->sent),
                static_cast<unsigned long long>(flood_report->sockets_opened),
                static_cast<unsigned long long>(flood_report->replies),
                100 * phase->split.legit.answered_rate(),
                phase->split.legit.latency_p99_ms,
                static_cast<unsigned long long>(reclaimed),
                static_cast<unsigned long long>(drops));
  }
  (*relay)->Stop();

  // --- Phase 5: anycast catchment skew --------------------------------------
  // Three virtual sites behind one meta server; client groups bind
  // distinct 127/8 source addresses, the catchment map routes each group
  // to a site, and each site injects its own reply-path RTT.
  {
    proxy::RelayConfig aconfig = pconfig;
    aconfig.sites = {{"lax", 0}, {"mia", Millis(15)}, {"nrt", Millis(40)}};
    proxy::CatchmentMap catchment;
    struct Group {
      IpAddress client;
      int site;
      double offered_share;
    };
    const Group kGroups[] = {
        {IpAddress(127, 201, 0, 9), 0, 0.6},
        {IpAddress(127, 202, 0, 9), 1, 0.3},
        {IpAddress(127, 203, 0, 9), 2, 0.1},
    };
    for (const auto& group : kGroups) {
      auto route_ok = catchment.AddRoute(group.client, 16,
                                         static_cast<size_t>(group.site));
      if (!route_ok.ok()) {
        std::fprintf(stderr, "catchment: %s\n",
                     route_ok.error().ToString().c_str());
        return 1;
      }
    }
    catchment.SetDefaultSite(0);
    aconfig.catchment = std::move(catchment);
    auto anycast = proxy::HierarchyProxy::Start(aconfig);
    if (!anycast.ok()) {
      std::fprintf(stderr, "anycast relay: %s\n",
                   anycast.error().ToString().c_str());
      return 1;
    }

    replay::RealtimeConfig group_config = rconfig;
    group_config.dst_port_override = (*anycast)->port();
    std::vector<double> group_p50;
    for (const auto& group : kGroups) {
      size_t count = static_cast<size_t>(
          group.offered_share * static_cast<double>(legit.size()));
      std::vector<trace::QueryRecord> slice(legit.begin(),
                                            legit.begin() + count);
      const NanoDuration step = kNanosPerSecond / kLegitQps;
      for (size_t i = 0; i < slice.size(); ++i) {
        slice[i].timestamp = static_cast<NanoTime>(i) * step;
      }
      group_config.local_addr = group.client;
      auto phase = RunPhase(std::move(slice),
                            std::vector<bool>(count, false), group_config,
                            **meta);
      if (!phase) return 1;
      std::string label = "anycast/" + aconfig.sites[group.site].name;
      AddClassRow(table, label, "legit", phase->split.legit);
      group_p50.push_back(phase->split.legit.latency_p50_ms);
      json.Set(label + "_answered_rate", phase->split.legit.answered_rate());
      json.Set(label + "_p50_ms", phase->split.legit.latency_p50_ms);
    }
    proxy::RelayStats stats = (*anycast)->TotalStats();
    (*anycast)->Stop();
    uint64_t total = 0;
    for (const auto& site : stats.sites) total += site.queries_in;
    double max_share = 0, min_share = 1;
    for (size_t i = 0; i < stats.sites.size(); ++i) {
      double share = total == 0 ? 0.0
                                : static_cast<double>(
                                      stats.sites[i].queries_in) /
                                      static_cast<double>(total);
      max_share = std::max(max_share, share);
      min_share = std::min(min_share, share);
      json.Set("anycast_" + stats.sites[i].name + "_share", share);
      std::printf("site %-4s caught %5.1f%% of queries (offered %5.1f%%), "
                  "injected rtt %.0f ms, group p50 %.2f ms\n",
                  stats.sites[i].name.c_str(), 100 * share,
                  100 * kGroups[i].offered_share,
                  ToMillis(aconfig.sites[i].rtt),
                  i < group_p50.size() ? group_p50[i] : 0.0);
    }
    json.Set("anycast_catchment_skew",
             min_share > 0 ? max_share / min_share : 0.0);
  }
  (*meta)->Stop();

  std::printf("%s\n", table.Render().c_str());
  std::printf("the flood phases degrade the cache, not "
              "the legit answered rate at these bounded rates; the anycast "
              "phase shows catchment shares tracking the offered split and "
              "p50 latency tracking each site's injected RTT.\n");
  json.WriteTo("BENCH_scenarios.json");
  return 0;
}
