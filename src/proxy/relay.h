// Real-socket hierarchy-emulation proxy (paper §2.4, Figure 2, over real
// sockets instead of TUN/iptables).
//
// The paper interposes two address-rewriting proxies between the recursive
// and the meta-DNS-server. Over real sockets both rewrites collapse into
// one relay process:
//
//   recursive side:  the proxy listens on the unspecified address at one
//     shared service port, the single interposition point the paper's TUN
//     device gives it. Every emulated nameserver address (loopback
//     aliases, see LoopbackAlias in common/ip.h) is local, so a query to
//     address A lands there, and the datagram's destination (RecvItem::to)
//     is its OQDA.
//   rewrite:         each shard forwards every query to the meta server
//     through one upstream socket bound to the unspecified address at its
//     own ephemeral port, naming the OQDA as the datagram's source
//     (IP_PKTINFO): the meta server sees src == OQDA, its split-horizon
//     view selector. The query's DNS ID is replaced by the index of the
//     ring slot that remembers the client (below).
//   authoritative side: the meta server's reply lands on the upstream
//     socket at (OQDA, upstream port); its ID names the slot, which gives
//     back the client endpoint and the client's own ID. The proxy sends
//     the reply to the client over the ingress path with A as its source,
//     so the client sees the reply arriving from the address it queried.
//
// The ID ring: 65,536 slots per shard, one per DNS ID, taken strictly
// round-robin, so the ring is its own age order. A slot still held when
// the cursor comes round again belongs to a query the meta server did
// not answer within one wrap; it is reclaimed and counted
// (proxy.reclaimed). A reply is delivered only when it comes from the
// meta server, its slot is held and it arrived at the slot's OQDA;
// otherwise it is counted (proxy.evicted_drops or proxy.passed_through).
// The client's port does not reach the meta server (paper §2.4 passes it
// through); views match on the source address alone (DESIGN.md §10).
//
// TCP is spliced: the proxy accepts on the same wildcard address and port,
// dials the meta server from the address the client dialed, and re-frames
// both directions; if the upstream stream dies with queries still owed,
// the proxy reconnects (with budget + backoff) and redelivers the
// unanswered frames, carrying the rewrite across reconnects.
//
// Sharding mirrors ShardedDnsServer: n_shards worker threads, each with
// its own EventLoop, SO_REUSEPORT wildcard ingress path, upstream socket,
// ID ring and metric instances (merged by name at snapshot). TCP stays on
// shard 0.
//
// Anycast emulation (catchment.h): when `sites` is configured, each query
// is assigned a site by catchment lookup on the client address, UDP
// replies are delayed by the site's RTT, and per-site proxy.site.*
// counters expose the load split. Sites are virtual — all catchments
// reach the same meta server — which is exactly the paper's meta-server
// move applied to anycast: one real server plays every replica, and the
// catchment map plays BGP. (TCP splices are not RTT-delayed; the anycast
// experiments are UDP-first, like root traffic.)
#ifndef LDPLAYER_PROXY_RELAY_H
#define LDPLAYER_PROXY_RELAY_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ip.h"
#include "common/result.h"
#include "proxy/catchment.h"
#include "stats/metrics.h"

namespace ldp::proxy {

struct RelayConfig {
  // Emulated nameserver addresses to impersonate. Must be local addresses
  // of this host — pass public testbed addresses through LoopbackAlias.
  // A datagram or stream to any other local address at the service port
  // is counted proxy.passed_through and not forwarded.
  std::vector<IpAddress> addresses;
  // Shared service port across all addresses (0 = pick an ephemeral port
  // from the first bind and reuse it for the rest). The proxy takes this
  // port on every local address.
  uint16_t port = 0;
  // Where rewritten queries go: the meta-DNS-server.
  Endpoint meta_server;
  size_t n_shards = 1;
  // SO_RCVBUF of each shard's ingress and upstream sockets.
  int udp_recv_buffer_bytes = 0;

  // TCP splice (shard 0).
  bool splice_tcp = true;
  int tcp_max_reconnects = 3;
  NanoDuration tcp_reconnect_backoff = Millis(50);

  // Anycast sites (empty = single-site, no catchment logic on the hot
  // path), at most 65,535. Each UDP query is assigned a site by catchment
  // lookup on the client source address; each site's RTT is injected on
  // the UDP reply path.
  std::vector<SiteSpec> sites;
  CatchmentMap catchment;

  // Optional live metrics: each shard counts proxy.*, the held-slot gauge
  // and its sockets' datapath.* frames into its own cells there (in a
  // private registry without one), and records rewrite-latency and
  // ingress-batch histograms. The registry must outlive the proxy; its
  // cells keep the final totals for snapshots taken after Stop().
  stats::MetricsRegistry* metrics = nullptr;
};

// Sums of every shard's registry cells; all counters monotonic except
// pending.
struct RelayStats {
  uint64_t rewritten = 0;       // address-rewritten packets, both legs
  uint64_t passed_through = 0;  // seen but not rewritable: not DNS-sized,
                                // or to a local address not emulated
  uint64_t queries_in = 0;
  uint64_t responses_in = 0;
  uint64_t responses_out = 0;
  // Always 0: the relay keeps no flows. Kept as fields only because the
  // benchmark still names them.
  uint64_t flows_created = 0;
  uint64_t flows_evicted = 0;
  uint64_t reclaimed = 0;       // slots still held when the ring came round
  uint64_t evicted_drops = 0;   // meta replies to a free slot or another OQDA
  uint64_t meta_send_errors = 0;
  uint64_t tcp_accepted = 0;
  uint64_t tcp_queries = 0;
  uint64_t tcp_responses = 0;
  uint64_t tcp_reconnects = 0;
  uint64_t tcp_failed = 0;      // splices torn down with queries still owed
  int64_t pending = 0;          // ring slots held: queries owed a reply

  // Per-site load split (empty unless RelayConfig::sites was set).
  struct SiteLoad {
    std::string name;
    uint64_t queries_in = 0;
    uint64_t responses_out = 0;
  };
  std::vector<SiteLoad> sites;
};

// The relay's ledger: each counter's metric name and RelayStats field.
// pending is the proxy.pending gauge; each site's load is
// proxy.site.<name>.queries and .responses.
inline constexpr auto kRelayLedger = std::to_array<
    stats::LedgerRow<RelayStats>>({
    {"proxy.rewritten", &RelayStats::rewritten},
    {"proxy.passed_through", &RelayStats::passed_through},
    {"proxy.queries_in", &RelayStats::queries_in},
    {"proxy.responses_in", &RelayStats::responses_in},
    {"proxy.responses_out", &RelayStats::responses_out},
    {"proxy.reclaimed", &RelayStats::reclaimed},
    {"proxy.evicted_drops", &RelayStats::evicted_drops},
    {"proxy.meta_send_errors", &RelayStats::meta_send_errors},
    {"proxy.tcp_accepted", &RelayStats::tcp_accepted},
    {"proxy.tcp_queries", &RelayStats::tcp_queries},
    {"proxy.tcp_responses", &RelayStats::tcp_responses},
    {"proxy.tcp_reconnects", &RelayStats::tcp_reconnects},
    {"proxy.tcp_failed", &RelayStats::tcp_failed},
});

class HierarchyProxy {
 public:
  using Config = RelayConfig;

  // Binds each shard's wildcard ingress path (resolving an ephemeral
  // service port via the first bind) and its upstream socket, then starts
  // one worker thread per shard. Fails, naming the port, when another
  // socket holds the port on one of the local addresses. Mirrors
  // ShardedDnsServer: sockets and loops are built on the calling thread;
  // after Start returns each loop is touched only by its own worker.
  static Result<std::unique_ptr<HierarchyProxy>> Start(const Config& config);

  ~HierarchyProxy();  // Stop() + join

  // Stops every worker loop (thread-safe wakeup) and joins. Idempotent.
  void Stop();

  // The resolved shared service port.
  uint16_t port() const { return port_; }
  size_t n_shards() const { return shards_.size(); }

  // Lock-free sums of the per-shard registry cells.
  RelayStats TotalStats() const;

 private:
  struct Shard;
  HierarchyProxy() = default;

  std::unique_ptr<stats::MetricsRegistry> own_metrics_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool stopped_ = false;
};

}  // namespace ldp::proxy

#endif  // LDPLAYER_PROXY_RELAY_H
