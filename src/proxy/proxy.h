// LDplayer's server proxies (paper §2.4, Figure 2).
//
// The recursive resolver walks the hierarchy by sending queries to the
// *public* addresses of nameservers (a.root-servers.net, a.gtld-servers.net,
// ...). In the testbed none of those addresses exist; a single meta-DNS-
// server answers for all of them. Two address-rewriting proxies make that
// work without the resolver noticing:
//
//   recursive proxy  (egress of the recursive, packets with dst port 53):
//       src := original query destination address (OQDA)
//       dst := meta-DNS-server
//     The OQDA lands in the source field, which is exactly what the meta
//     server's split-horizon views match on to pick the zone.
//
//   authoritative proxy  (egress of the meta server, packets with src
//   port 53):
//       src := original destination (the OQDA the server replied toward)
//       dst := recursive server
//     The recursive sees a reply arriving from the address it queried and
//     accepts it; ports pass through untouched so demultiplexing works.
//
// In the paper this capture runs over TUN devices programmed by iptables
// mangle rules; here the SimNetwork egress hook plays that role (the same
// "all packets leaving the host with port 53" predicate).
#ifndef LDPLAYER_PROXY_PROXY_H
#define LDPLAYER_PROXY_PROXY_H

#include <array>
#include <cstdint>
#include <memory>

#include "common/ip.h"
#include "sim/network.h"
#include "stats/metrics.h"

namespace ldp::proxy {

// One proxy's counters, read from the cells of its private registry.
struct ProxyStats {
  uint64_t rewritten = 0;
  uint64_t passed_through = 0;
};

// The same proxy.* names the real-socket relay (relay.h) counts under, so
// sim and real-socket hierarchy proxies are interchangeable in dashboards.
inline constexpr auto kProxyLedger = std::to_array<
    stats::LedgerRow<ProxyStats>>({
    {"proxy.rewritten", &ProxyStats::rewritten},
    {"proxy.passed_through", &ProxyStats::passed_through},
});

class RecursiveProxy {
 public:
  // Captures DNS queries leaving `recursive` and redirects them to
  // `meta_server`. Installs itself as the node's egress hook.
  RecursiveProxy(sim::SimNetwork& net, IpAddress recursive,
                 IpAddress meta_server);
  ~RecursiveProxy();
  RecursiveProxy(const RecursiveProxy&) = delete;
  RecursiveProxy& operator=(const RecursiveProxy&) = delete;

  ProxyStats stats() const { return ledger_.Read(); }

 private:
  sim::SimNetwork& net_;
  IpAddress recursive_;
  IpAddress meta_server_;
  stats::MetricsRegistry metrics_;
  stats::Ledger<kProxyLedger> ledger_{metrics_};
};

class AuthoritativeProxy {
 public:
  // Captures DNS responses leaving `meta_server` and delivers them to
  // `recursive`, restoring the expected source address.
  AuthoritativeProxy(sim::SimNetwork& net, IpAddress meta_server,
                     IpAddress recursive);
  ~AuthoritativeProxy();
  AuthoritativeProxy(const AuthoritativeProxy&) = delete;
  AuthoritativeProxy& operator=(const AuthoritativeProxy&) = delete;

  ProxyStats stats() const { return ledger_.Read(); }

 private:
  sim::SimNetwork& net_;
  IpAddress meta_server_;
  IpAddress recursive_;
  stats::MetricsRegistry metrics_;
  stats::Ledger<kProxyLedger> ledger_{metrics_};
};

}  // namespace ldp::proxy

#endif  // LDPLAYER_PROXY_PROXY_H
