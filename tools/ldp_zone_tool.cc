// ldp-zone-tool: zone-file utilities — validate, DNSSEC-sign, normalize,
// and summarize master files.
//
//   ldp_zone_tool validate zone.db
//   ldp_zone_tool sign --zsk-bits 2048 --rollover zone.db signed.db
//   ldp_zone_tool normalize zone.db out.db      (canonical order, FQDNs)
//   ldp_zone_tool info zone.db
//   ldp_zone_tool hierarchy --tlds 3 --slds 4 hierarchy/
#include <sys/stat.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>

#include "common/flags.h"
#include "trace/text.h"
#include "workload/hierarchy.h"
#include "zone/compiled.h"
#include "zone/dnssec.h"
#include "zone/lookup.h"
#include "zone/manifest.h"
#include "zone/masterfile.h"

using namespace ldp;

namespace {

constexpr const char* kUsage =
    R"(usage: ldp_zone_tool COMMAND [flags] ZONEFILE [OUTFILE]
       ldp_zone_tool hierarchy [flags] OUTDIR
commands:
  validate   parse + servability checks (SOA, apex NS)
  sign       add synthetic DNSSEC (DNSKEY/NSEC/RRSIG); flags:
               --zsk-bits N (1024)  --ksk-bits N (2048), both in
               [512, 4096]  --rollover
  normalize  rewrite in canonical order with fully-qualified names
  info       print summary: origin, counts, delegations, DNSSEC state
  hierarchy  synthesize a root/TLD/SLD hierarchy into OUTDIR: one master
             file per zone, a views.txt manifest (split-horizon views keyed
             on each zone's nameserver addresses), and a queries.txt trace
             whose destinations are the public nameserver addresses; flags:
               --tlds N (3, in [1, 1000])  --slds N (4, in [0, 10000])
               --hosts N (2, in [0, 1000])  --ns N (2, in [1, 13])
               --queries N (2000, in [0, 2^30])
               --qps N (2000, in [1, 10^9])  --tcp-every N (0 = none)
               --seed N (42)  --raw-views (keep public addresses in
               views.txt instead of LoopbackAlias'd ones))";

int Info(const zone::Zone& zone) {
  std::printf("origin:        %s\n", zone.origin().ToString().c_str());
  std::printf("records:       %zu\n", zone.record_count());
  std::printf("nodes:         %zu\n", zone.node_count());
  auto cuts = zone.DelegationPoints();
  std::printf("delegations:   %zu\n", cuts.size());
  for (size_t i = 0; i < cuts.size() && i < 5; ++i) {
    std::printf("  %s\n", cuts[i].ToString().c_str());
  }
  if (cuts.size() > 5) std::printf("  ... %zu more\n", cuts.size() - 5);
  bool signed_zone =
      zone.FindRRset(zone.origin(), dns::RRType::kDNSKEY) != nullptr;
  std::printf("dnssec:        %s\n", signed_zone ? "signed" : "unsigned");
  const zone::CompiledZone compiled(zone);
  std::printf("est. memory:   %.1f KB (zone %.1f KB est. + compiled index "
              "%.1f KB)\n",
              static_cast<double>(zone.MemoryFootprint() +
                                  compiled.MemoryFootprint()) /
                  1024.0,
              static_cast<double>(zone.MemoryFootprint()) / 1024.0,
              static_cast<double>(compiled.MemoryFootprint()) / 1024.0);
  const dns::RRset* soa = zone.Soa();
  if (soa != nullptr && !soa->rdatas.empty()) {
    std::printf("soa serial:    %u\n",
                std::get<dns::SoaRdata>(soa->rdatas[0]).serial);
  }
  return 0;
}

std::string ZoneFileName(const dns::Name& origin) {
  std::string name = origin.ToString();
  if (name == ".") return "root.zone";
  if (!name.empty() && name.back() == '.') name.pop_back();
  return name + ".zone";
}

// hierarchy command: write a self-contained experiment directory — zones,
// views.txt (split-horizon manifest), and queries.txt (text trace whose
// destinations are the public nameserver addresses, i.e. OQDAs).
int Hierarchy(const Flags& flags, const std::string& out_dir) {
  const auto tlds = flags.GetIntInRange("tlds", 3, 1, 1000);
  const auto slds = flags.GetIntInRange("slds", 4, 0, 10'000);
  const auto hosts_per_sld = flags.GetIntInRange("hosts", 2, 0, 1000);
  const auto ns = flags.GetIntInRange("ns", 2, 1, 13);
  const auto seed = flags.GetIntInRange("seed", 42, 0, INT64_MAX);
  const auto n_queries = flags.GetIntInRange("queries", 2000, 0, 1 << 30);
  const auto qps = flags.GetIntInRange("qps", 2000, 1, 1'000'000'000);
  const auto tcp_every = flags.GetIntInRange("tcp-every", 0, 0, INT64_MAX);
  for (const auto* value : {&tlds, &slds, &hosts_per_sld, &ns, &seed,
                            &n_queries, &qps, &tcp_every}) {
    if (!value->ok()) {
      std::fprintf(stderr, "%s\n", value->error().ToString().c_str());
      return 2;
    }
  }
  workload::HierarchyConfig config;
  config.n_tlds = static_cast<size_t>(*tlds);
  config.n_slds_per_tld = static_cast<size_t>(*slds);
  config.n_hosts_per_sld = static_cast<size_t>(*hosts_per_sld);
  config.ns_per_zone = static_cast<size_t>(*ns);
  config.seed = static_cast<uint64_t>(*seed);
  if (::mkdir(out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::perror(out_dir.c_str());
    return 1;
  }

  workload::Hierarchy hierarchy = workload::BuildHierarchy(config);

  // views.txt lists the addresses the meta server will actually see as
  // query sources: the proxy binds these and uses them as rewritten source
  // addresses, so by default they are the LoopbackAlias'd images of the
  // public nameserver addresses. --raw-views keeps the public ones (for
  // setups with real interface aliases instead of the 127/8 stand-in).
  bool raw_views = flags.GetBool("raw-views", false);
  zone::ViewManifest manifest;
  for (const auto& z : hierarchy.AllZones()) {
    std::string file = ZoneFileName(z->origin());
    if (auto s = zone::SaveMasterFile(*z, out_dir + "/" + file); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.error().ToString().c_str());
      return 1;
    }
    auto ns = hierarchy.nameservers.find(z->origin());
    if (ns == hierarchy.nameservers.end() || ns->second.empty()) {
      std::fprintf(stderr, "no nameservers generated for %s\n",
                   z->origin().ToString().c_str());
      return 1;
    }
    zone::ViewSpec view;
    view.name = file.substr(0, file.size() - sizeof(".zone") + 1);
    for (IpAddress addr : ns->second) {
      view.sources.push_back(raw_views ? addr : LoopbackAlias(addr));
    }
    view.zone_files.push_back(std::move(file));
    manifest.views.push_back(std::move(view));
  }
  if (auto s = zone::SaveViewManifest(manifest, out_dir + "/views.txt");
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.error().ToString().c_str());
    return 1;
  }

  // Queries target the PUBLIC nameserver addresses — the trace is what a
  // capture point would have seen. The replayer remaps them with
  // --follow-dst --loopback-dst; most are leaf A lookups at the owning SLD,
  // every 7th asks the parent zone for the delegation so the TLD and root
  // views get traffic too.
  std::vector<trace::QueryRecord> records;
  records.reserve(static_cast<size_t>(*n_queries));
  const NanoDuration step = 1'000'000'000 / *qps;
  const auto& hosts = hierarchy.hostnames;
  if (hosts.empty() && *n_queries > 0) {
    std::fprintf(stderr, "hierarchy generated no hostnames\n");
    return 1;
  }
  for (int64_t i = 0; i < *n_queries; ++i) {
    const size_t index = static_cast<size_t>(i);
    trace::QueryRecord record;
    record.timestamp = static_cast<NanoTime>(i) * step;
    record.src = IpAddress(203, 0, 113, static_cast<uint8_t>(1 + index % 200));
    record.src_port = static_cast<uint16_t>(40000 + index % 20000);
    record.qname = hosts[index % hosts.size()];
    auto owner = record.qname.Parent();
    if (!owner.ok()) continue;
    dns::Name target_zone = *owner;
    if (index % 7 == 3) {
      record.qname = target_zone;
      record.qtype = dns::RRType::kNS;
      if (auto parent = target_zone.Parent(); parent.ok()) {
        target_zone = *parent;
      }
    }
    auto ns = hierarchy.nameservers.find(target_zone);
    if (ns == hierarchy.nameservers.end() || ns->second.empty()) continue;
    record.dst = ns->second[index % ns->second.size()];
    record.dst_port = 53;
    record.rd = false;
    record.protocol = *tcp_every > 0 && i % *tcp_every == 0
                          ? trace::Protocol::kTcp
                          : trace::Protocol::kUdp;
    records.push_back(std::move(record));
  }
  if (auto s = trace::WriteTextTraceFile(records, out_dir + "/queries.txt");
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.error().ToString().c_str());
    return 1;
  }

  std::printf("hierarchy: %zu zones, %zu views, %zu queries -> %s\n",
              hierarchy.AllZones().size(), manifest.views.size(),
              records.size(), out_dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_result = Flags::Parse(argc, argv, {"rollover", "raw-views"});
  if (!flags_result.ok()) {
    std::fprintf(stderr, "%s\n", flags_result.error().ToString().c_str());
    return 2;
  }
  const Flags& flags = *flags_result;
  if (auto s = flags.RequireKnown(
          {"zsk-bits", "ksk-bits", "rollover", "tlds", "slds", "hosts", "ns",
           "queries", "qps", "tcp-every", "seed", "raw-views", "help"});
      !s.ok()) {
    std::fprintf(stderr, "%s\n%s\n", s.error().ToString().c_str(), kUsage);
    return 2;
  }
  const auto& args = flags.positional();
  if (flags.GetBool("help", false) || args.size() < 2) {
    std::fprintf(stderr, "%s\n", kUsage);
    return 2;
  }
  const std::string& command = args[0];
  const std::string& in_path = args[1];

  // hierarchy takes an output directory, not a zone file, so it dispatches
  // before the load below.
  if (command == "hierarchy") {
    return Hierarchy(flags, in_path);
  }

  auto zone = zone::LoadMasterFile(in_path, zone::MasterFileOptions{});
  if (!zone.ok()) {
    std::fprintf(stderr, "%s: %s\n", in_path.c_str(),
                 zone.error().ToString().c_str());
    return 1;
  }

  if (command == "validate") {
    if (auto s = zone->Validate(); !s.ok()) {
      std::fprintf(stderr, "INVALID: %s\n", s.error().ToString().c_str());
      return 1;
    }
    std::printf("OK: %s (%zu records)\n", zone->origin().ToString().c_str(),
                zone->record_count());
    return 0;
  }
  if (command == "info") {
    return Info(*zone);
  }
  if (command == "sign" || command == "normalize") {
    if (args.size() < 3) {
      std::fprintf(stderr, "missing OUTFILE\n%s\n", kUsage);
      return 2;
    }
    if (command == "sign") {
      const auto zsk_bits = flags.GetIntInRange("zsk-bits", 1024, 512, 4096);
      const auto ksk_bits = flags.GetIntInRange("ksk-bits", 2048, 512, 4096);
      for (const auto* value : {&zsk_bits, &ksk_bits}) {
        if (!value->ok()) {
          std::fprintf(stderr, "%s\n", value->error().ToString().c_str());
          return 2;
        }
      }
      zone::DnssecConfig config;
      config.zsk_bits = static_cast<int>(*zsk_bits);
      config.ksk_bits = static_cast<int>(*ksk_bits);
      config.zsk_rollover = flags.GetBool("rollover", false);
      if (auto s = zone::SignZone(*zone, config); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.error().ToString().c_str());
        return 1;
      }
    }
    if (auto s = zone::SaveMasterFile(*zone, args[2]); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.error().ToString().c_str());
      return 1;
    }
    std::printf("%s -> %s (%zu records)\n", in_path.c_str(), args[2].c_str(),
                zone->record_count());
    return 0;
  }
  std::fprintf(stderr, "unknown command %s\n%s\n", command.c_str(), kUsage);
  return 2;
}
