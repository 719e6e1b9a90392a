// Ablation (paper §2.4): cost of emulating the DNS hierarchy with one
// meta-DNS-server + proxies vs one server process per nameserver address.
//
// The paper's argument: per-zone servers cannot scale to the hundreds of
// zones a recursive trace touches (memory + virtual interfaces), while the
// meta-server needs one listener and one zone store. This harness measures
// both topologies serving the same reconstructed hierarchy: node count,
// zone-store memory, and the resolver-visible behaviour (which must be
// identical — checked, not assumed).
// Phase 2 (real sockets): the same split-horizon meta-server behind the
// HierarchyProxy, driven by the realtime replay engine over loopback UDP —
// proxied vs direct throughput, written to BENCH_hierarchy.json.
#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "proxy/proxy.h"
#include "proxy/relay.h"
#include "replay/realtime.h"
#include "resolver/resolver.h"
#include "server/sharded_server.h"
#include "trace/record.h"

using namespace ldp;

namespace {

struct TopologyCost {
  size_t server_nodes = 0;
  size_t listener_addresses = 0;
  size_t zone_store_bytes = 0;
  uint64_t upstream_queries = 0;
  size_t answers = 0;
};

TopologyCost RunDistributed(const workload::Hierarchy& hierarchy,
                            const std::vector<dns::Name>& probes) {
  sim::Simulator simulator;
  sim::SimNetwork net(simulator);
  TopologyCost cost;

  std::vector<std::unique_ptr<server::SimDnsServer>> servers;
  for (const auto& [address, origin] : hierarchy.address_to_zone) {
    zone::ZoneSet set;
    for (const auto& zone : hierarchy.AllZones()) {
      if (zone->origin() == origin) {
        auto add_ok = set.AddZone(zone);
        (void)add_ok;
        // Every per-address replica keeps its own copy in the naive
        // deployment (zone and compiled index); count it.
        cost.zone_store_bytes += set.TotalMemoryFootprint();
        break;
      }
    }
    servers.push_back(
        server::MakeAuthoritativeNode(net, address, std::move(set)));
    ++cost.server_nodes;
    ++cost.listener_addresses;
  }

  resolver::ResolverConfig rconfig;
  rconfig.address = IpAddress(10, 0, 0, 2);
  rconfig.root_hints = hierarchy.nameservers.at(dns::Name::Root());
  resolver::SimResolver resolver(net, rconfig);
  auto start_ok = resolver.Start();
  (void)start_ok;

  for (const auto& name : probes) {
    resolver.Resolve(name, dns::RRType::kA, [&](const dns::Message& m) {
      if (!m.answers.empty()) ++cost.answers;
    });
    simulator.Run();
  }
  cost.upstream_queries = resolver.stats().upstream_queries;
  return cost;
}

TopologyCost RunMetaServer(const workload::Hierarchy& hierarchy,
                           const std::vector<dns::Name>& probes) {
  sim::Simulator simulator;
  sim::SimNetwork net(simulator);
  TopologyCost cost;

  zone::ViewTable views;
  for (const auto& zone : hierarchy.AllZones()) {
    zone::ZoneSet set;
    auto add_ok = set.AddZone(zone);
    (void)add_ok;
    // One copy, total: the zone and its compiled index.
    cost.zone_store_bytes += set.TotalMemoryFootprint();
    auto view_ok = views.AddView(zone->origin().ToString(),
                                 hierarchy.nameservers.at(zone->origin()),
                                 std::move(set));
    (void)view_ok;
  }
  auto engine = std::make_shared<server::AuthServerEngine>(std::move(views));
  server::SimDnsServer::Config config;
  config.address = IpAddress(10, 0, 0, 50);
  server::SimDnsServer meta(net, engine, config);
  auto start_ok = meta.Start();
  (void)start_ok;
  cost.server_nodes = 1;
  cost.listener_addresses = 1;

  resolver::ResolverConfig rconfig;
  rconfig.address = IpAddress(10, 0, 0, 2);
  rconfig.root_hints = hierarchy.nameservers.at(dns::Name::Root());
  resolver::SimResolver resolver(net, rconfig);
  auto rstart_ok = resolver.Start();
  (void)rstart_ok;
  proxy::RecursiveProxy rproxy(net, rconfig.address, config.address);
  proxy::AuthoritativeProxy aproxy(net, config.address, rconfig.address);

  for (const auto& name : probes) {
    resolver.Resolve(name, dns::RRType::kA, [&](const dns::Message& m) {
      if (!m.answers.empty()) ++cost.answers;
    });
    simulator.Run();
  }
  cost.upstream_queries = resolver.stats().upstream_queries;
  return cost;
}

// --- Real-socket phase -----------------------------------------------------

struct RealRun {
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t lost = 0;  // timed_out + send_failed after retransmits
  uint64_t retransmits = 0;
  double qps = 0;     // end-to-end: sent / wall
  double wall_s = 0;
};

RealRun SummarizeReport(const replay::RealtimeReport& report) {
  RealRun run;
  run.sent = report.queries_sent;
  run.answered = report.answered;
  run.lost = report.timed_out + report.send_failed;
  run.retransmits = report.retransmits;
  run.wall_s = ToSeconds(report.wall_duration);
  run.qps = run.wall_s > 0 ? static_cast<double>(run.sent) / run.wall_s : 0;
  return run;
}

// Paced loopback replay of `records` restamped to `qps`. Returns nullopt
// (with a message) on setup failure.
std::optional<RealRun> Replay(std::vector<trace::QueryRecord> records,
                              int64_t qps,
                              const replay::RealtimeConfig& config) {
  const NanoDuration step = kNanosPerSecond / qps;
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].timestamp = static_cast<NanoTime>(i) * step;
  }
  auto report = replay::RunRealtimeReplay(records, config);
  if (!report.ok()) {
    std::fprintf(stderr, "replay: %s\n", report.error().ToString().c_str());
    return std::nullopt;
  }
  return SummarizeReport(*report);
}

// Builds the query stream of the real-socket phase: leaf A lookups against
// the PUBLIC nameserver addresses (the OQDAs a capture point would record),
// every 7th a delegation NS query one level up. Timestamps ascend but are
// ignored (fast mode).
std::vector<trace::QueryRecord> MakeRealTrace(
    const workload::Hierarchy& hierarchy, size_t n_queries) {
  std::vector<trace::QueryRecord> records;
  records.reserve(n_queries);
  for (size_t i = 0; i < n_queries; ++i) {
    trace::QueryRecord record;
    record.timestamp = static_cast<NanoTime>(i) * 1000;
    record.src = IpAddress(203, 0, 113, static_cast<uint8_t>(1 + i % 200));
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
    records.push_back(std::move(record));
  }
  return records;
}

int RunRealSocketPhase(bench::BenchJson& json) {
  workload::HierarchyConfig hconfig;
  hconfig.n_tlds = 3;
  hconfig.n_slds_per_tld = 4;
  hconfig.n_hosts_per_sld = 2;
  auto hierarchy = workload::BuildHierarchy(hconfig);

  // Split-horizon views keyed on the proxy's REWRITTEN sources (the
  // LoopbackAlias'd OQDAs), plus a default view holding every zone so the
  // direct baseline — whose queries arrive from 127.0.0.1 — still answers.
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
  auto shared_views =
      std::make_shared<const zone::ViewTable>(std::move(views));

  server::ShardedDnsServer::Config sconfig;
  sconfig.listen = Endpoint{IpAddress::Loopback(), 0};
  sconfig.n_shards = 2;
  sconfig.serve_tcp = false;
  sconfig.udp_recv_buffer_bytes = 1 << 22;
  sconfig.engine.response_cache_entries = 4096;
  auto meta = server::ShardedDnsServer::Start(shared_views, sconfig);
  if (!meta.ok()) {
    std::fprintf(stderr, "meta server: %s\n",
                 meta.error().ToString().c_str());
    return 1;
  }

  const size_t kQueries = 40000;
  auto records = MakeRealTrace(hierarchy, kQueries);

  // One distributor, one querier: on small hosts the whole chain
  // (replayer + relay + meta server) time-slices few cores, and extra
  // replay threads cost more in context switches than they add in send
  // capacity. Retransmits recover transient kernel-buffer drops; a query
  // is only "lost" if it times out after the retransmit budget.
  replay::RealtimeConfig rconfig;
  rconfig.server = (*meta)->endpoint();
  rconfig.n_distributors = 1;
  rconfig.queriers_per_distributor = 1;
  rconfig.query_timeout = Millis(300);
  rconfig.max_retransmits = 2;

  // Proxied path: the replayer addresses each OQDA (aliased into 127/8) on
  // the relay's service port; the relay rewrites toward the meta server.
  proxy::RelayConfig pconfig;
  for (const auto& [address, origin] : hierarchy.address_to_zone) {
    pconfig.addresses.push_back(LoopbackAlias(address));
  }
  pconfig.meta_server = rconfig.server;
  pconfig.n_shards = 1;
  pconfig.udp_recv_buffer_bytes = 1 << 22;
  pconfig.splice_tcp = false;  // all-UDP stream; TCP splice is test-covered
  auto relay = proxy::HierarchyProxy::Start(pconfig);
  if (!relay.ok()) {
    std::fprintf(stderr, "relay: %s\n", relay.error().ToString().c_str());
    return 1;
  }

  replay::RealtimeConfig proxied_config = rconfig;
  proxied_config.follow_trace_dst = true;
  proxied_config.dst_port_override = (*relay)->port();
  proxied_config.loopback_alias_dst = true;

  // Descending offered-rate ladder. Achieved throughput is not monotonic
  // in offered rate: a rung can be zero-loss yet spend most of its wall
  // time in the retransmit tail, so keep walking down past the first
  // clean rung and report the zero-loss run with the best achieved rate.
  const int64_t kLadder[] = {80000, 60000, 50000, 40000, 30000, 20000,
                             10000, 5000};
  std::optional<RealRun> proxied;
  int64_t offered = 0;
  for (int64_t rate : kLadder) {
    // Let the relay and server drain the previous rung's retransmit
    // backlog; late responses otherwise bleed into this rung's loss.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    auto run = Replay(records, rate, proxied_config);
    if (!run) return 1;
    std::printf("  proxied @ %lldk q/s offered: answered %llu/%llu, "
                "retransmits %llu, wall %.2fs (%.1fk q/s)\n",
                static_cast<long long>(rate / 1000),
                static_cast<unsigned long long>(run->answered),
                static_cast<unsigned long long>(run->sent),
                static_cast<unsigned long long>(run->retransmits),
                run->wall_s, run->qps / 1000.0);
    if (run->lost != 0) continue;
    if (!proxied) {
      proxied = run;
      offered = rate;
    } else if (run->qps > proxied->qps) {
      proxied = run;
      offered = rate;
    } else {
      break;  // achieved rate started falling again; stop descending
    }
  }
  if (!proxied) {
    std::fprintf(stderr, "no zero-loss rate found down to 5k q/s\n");
    return 1;
  }
  proxy::RelayStats relay_stats = (*relay)->TotalStats();

  // Direct baseline at the same offered rate: every query straight at the
  // meta server's endpoint.
  auto direct_records = records;
  for (auto& record : direct_records) {
    record.dst = rconfig.server.addr;
    record.dst_port = rconfig.server.port;
  }
  auto direct = Replay(direct_records, offered, rconfig);
  if (!direct) return 1;
  (*relay)->Stop();
  (*meta)->Stop();

  double ratio = direct->qps > 0 ? proxied->qps / direct->qps : 0;

  stats::Table table({"path", "offered", "sent", "answered", "lost",
                      "wall (s)", "achieved"});
  table.AddRow({"direct -> meta",
                FormatDouble(offered / 1000.0, 0) + "k q/s",
                std::to_string(direct->sent),
                std::to_string(direct->answered),
                std::to_string(direct->lost),
                FormatDouble(direct->wall_s, 2),
                FormatDouble(direct->qps / 1000.0, 1) + "k q/s"});
  table.AddRow({"via ldp_proxy",
                FormatDouble(offered / 1000.0, 0) + "k q/s",
                std::to_string(proxied->sent),
                std::to_string(proxied->answered),
                std::to_string(proxied->lost),
                FormatDouble(proxied->wall_s, 2),
                FormatDouble(proxied->qps / 1000.0, 1) + "k q/s"});
  std::printf("%s\n", table.Render().c_str());
  std::printf("proxied/direct throughput ratio: %.2f; relay rewrote %llu "
              "datagrams (%llu reclaimed, %llu replies dropped)\n",
              ratio,
              static_cast<unsigned long long>(relay_stats.rewritten),
              static_cast<unsigned long long>(relay_stats.reclaimed),
              static_cast<unsigned long long>(relay_stats.evicted_drops));

  json.Set("real_queries", static_cast<uint64_t>(records.size()));
  json.Set("real_emulated_addresses",
           static_cast<uint64_t>(pconfig.addresses.size()));
  json.Set("zero_loss_offered_qps", static_cast<uint64_t>(offered));
  json.Set("direct_qps", direct->qps);
  json.Set("direct_answered", direct->answered);
  json.Set("direct_lost", direct->lost);
  json.Set("proxied_qps", proxied->qps);
  json.Set("proxied_answered", proxied->answered);
  json.Set("proxied_lost", proxied->lost);
  json.Set("proxied_retransmits", proxied->retransmits);
  json.Set("proxied_direct_ratio", ratio);
  json.Set("relay_rewritten", relay_stats.rewritten);
  json.Set("relay_reclaimed", relay_stats.reclaimed);
  json.Set("relay_evicted_drops", relay_stats.evicted_drops);
  json.Set("relay_meta_send_errors", relay_stats.meta_send_errors);
  return 0;
}

}  // namespace

int main() {
  bench::PrintHeader("Ablation: hierarchy emulation topology",
                     "meta-DNS-server + proxies vs one server per "
                     "nameserver address",
                     "549 zones fit one server instance; per-zone servers "
                     "hit host/interface limits (paper 2.4)");

  bench::BenchJson json;
  stats::Table table({"zones", "topology", "server nodes", "listen addrs",
                      "zone-store", "upstream queries", "answers"});
  for (auto [tlds, slds] : {std::pair<size_t, size_t>{5, 10}, {20, 27}}) {
    workload::HierarchyConfig config;
    config.n_tlds = tlds;
    config.n_slds_per_tld = slds;
    auto hierarchy = workload::BuildHierarchy(config);
    std::vector<dns::Name> probes(
        hierarchy.hostnames.begin(),
        hierarchy.hostnames.begin() +
            std::min<size_t>(hierarchy.hostnames.size(), 200));

    auto distributed = RunDistributed(hierarchy, probes);
    auto meta = RunMetaServer(hierarchy, probes);
    size_t zones = hierarchy.AllZones().size();
    table.AddRow({std::to_string(zones), "per-zone servers",
                  std::to_string(distributed.server_nodes),
                  std::to_string(distributed.listener_addresses),
                  FormatDouble(distributed.zone_store_bytes/1048576.0, 1) + " MB",
                  std::to_string(distributed.upstream_queries),
                  std::to_string(distributed.answers)});
    table.AddRow({std::to_string(zones), "meta-server+proxies",
                  std::to_string(meta.server_nodes),
                  std::to_string(meta.listener_addresses),
                  FormatDouble(meta.zone_store_bytes/1048576.0, 1) + " MB",
                  std::to_string(meta.upstream_queries),
                  std::to_string(meta.answers)});
    if (distributed.upstream_queries != meta.upstream_queries ||
        distributed.answers != meta.answers) {
      std::printf("WARNING: behaviours diverge — emulation is NOT faithful\n");
    }
    if (tlds == 20) {
      json.Set("sim_zones", static_cast<uint64_t>(zones));
      json.Set("sim_per_zone_nodes",
               static_cast<uint64_t>(distributed.server_nodes));
      json.Set("sim_meta_nodes", static_cast<uint64_t>(meta.server_nodes));
      json.Set("sim_per_zone_store_mb",
               static_cast<double>(distributed.zone_store_bytes) / 1048576.0);
      json.Set("sim_meta_store_mb",
               static_cast<double>(meta.zone_store_bytes) / 1048576.0);
      json.Set("sim_behaviour_identical",
               static_cast<uint64_t>(
                   distributed.upstream_queries == meta.upstream_queries &&
                   distributed.answers == meta.answers));
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("identical upstream-query counts and answers confirm the "
              "emulation is behaviour-preserving while collapsing N server "
              "nodes (and N listener addresses / routes) to 1.\n");

  bench::PrintHeader("Hierarchy emulation over real sockets",
                     "paced loopback replay, rate ladder, direct vs via "
                     "the address-rewriting relay",
                     "proxy adds one UDP hop; throughput stays within the "
                     "same order (paper 2.4)");
  int real_rc = RunRealSocketPhase(json);
  json.WriteTo("BENCH_hierarchy.json");
  return real_rc;
}
