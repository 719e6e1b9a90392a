// Transport-agnostic authoritative DNS server engine: the meta-DNS-server
// of paper §2.4. A single engine instance serves many zones; split-horizon
// views keyed on the query *source address* select which zone answers —
// after the recursive proxy's OQDA rewrite, that source address is the
// public address of the nameserver the querier believed it was asking.
//
// The same engine runs over the simulator (sim_server.h) and over real
// sockets (socket_server.h): transports hand it wire bytes + the source
// address, it hands back wire bytes.
#ifndef LDPLAYER_SERVER_ENGINE_H
#define LDPLAYER_SERVER_ENGINE_H

#include <array>
#include <cstdint>
#include <memory>

#include "common/ip.h"
#include "common/result.h"
#include "server/response_cache.h"
#include "stats/metrics.h"
#include "zone/compiled.h"
#include "zone/lookup.h"
#include "zone/view.h"

namespace ldp::server {

// One engine's counters, read from its registry cells (see
// AuthServerEngine::stats). Plain integers, so perfbench and tests read
// them through member pointers.
struct EngineStats {
  uint64_t queries = 0;
  uint64_t responses = 0;
  uint64_t dropped = 0;      // undecodable queries
  uint64_t refused = 0;      // no zone for qname in the matched view
  uint64_t nxdomain = 0;
  uint64_t truncated = 0;    // responses that set TC over UDP
  uint64_t response_bytes = 0;
  // Wire-level response cache (all zero when the cache is disabled).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;    // eligible queries not found in the cache
  uint64_t cache_bypass = 0;    // queries ineligible for caching
  uint64_t cache_evictions = 0;
  uint64_t cache_size = 0;      // entries at snapshot time
};

// The engine's ledger: each counter's metric name and EngineStats field.
inline constexpr auto kEngineLedger = std::to_array<
    stats::LedgerRow<EngineStats>>({
    {"server.queries", &EngineStats::queries},
    {"server.responses", &EngineStats::responses},
    {"server.dropped", &EngineStats::dropped},
    {"server.refused", &EngineStats::refused},
    {"server.nxdomain", &EngineStats::nxdomain},
    {"server.truncated", &EngineStats::truncated},
    {"server.response_bytes", &EngineStats::response_bytes},
    {"server.cache_hits", &EngineStats::cache_hits},
    {"server.cache_misses", &EngineStats::cache_misses},
    {"server.cache_bypass", &EngineStats::cache_bypass},
    {"server.cache_evictions", &EngineStats::cache_evictions},
    {"server.cache_size", &EngineStats::cache_size, /*level=*/true},
});

struct EngineOptions {
  // Capacity (entries) of the wire-level response cache; 0 disables it.
  size_t response_cache_entries = 0;
};

class AuthServerEngine {
 public:
  // The view table is shared so sharded servers can run one engine (and
  // one private response cache) per worker over the same zones. The
  // engine counts into its own cells of `metrics` (which must outlive
  // it), or of a private registry when none is given.
  explicit AuthServerEngine(std::shared_ptr<const zone::ViewTable> views,
                            EngineOptions options = {},
                            stats::MetricsRegistry* metrics = nullptr);
  explicit AuthServerEngine(zone::ViewTable views, EngineOptions options = {})
      : AuthServerEngine(std::make_shared<const zone::ViewTable>(
                             std::move(views)),
                         options) {}

  // Wire-to-wire. `udp_limit` caps the response size (EDNS-advertised or
  // 512); pass 0 for stream transports (no truncation). Plain queries
  // (dns::ParseWireQuery) are answered from the response cache or the
  // compiled zones, without decoding; other shapes are decoded and served
  // by zone::BuildResponse. Returns kParseError for undecodable input
  // (transports drop those).
  Result<Bytes> HandleWire(std::span<const uint8_t> wire, IpAddress source,
                           size_t udp_limit);

  // Stream-transport entry point: routes AXFR questions to HandleAxfr and
  // everything else to the normal query path (no truncation). Each
  // returned buffer is one DNS message to frame and send.
  Result<std::vector<Bytes>> HandleStream(std::span<const uint8_t> wire,
                                          IpAddress source);

  // AXFR (RFC 5936): the whole zone as a sequence of response messages,
  // SOA-first and SOA-last, each under the 64 KiB stream-message limit.
  // Stream transports call this when the question type is AXFR; over UDP
  // the engine REFUSEs instead. The zone is selected from the view for
  // `source`, so transfers obey split-horizon boundaries.
  Result<std::vector<Bytes>> HandleAxfr(const dns::Message& query,
                                        IpAddress source);

  // Snapshot of the counters. Increments use relaxed atomics, so another
  // thread may snapshot a shard's stats while the shard serves — no locks,
  // no torn reads (each counter individually exact; the set is only
  // loosely consistent, which aggregation tolerates).
  EngineStats stats() const { return ledger_.Read(); }
  const stats::Ledger<kEngineLedger>& ledger() const { return ledger_; }
  // The registry the engine counts into; transports serving this engine
  // register their own cells there.
  stats::MetricsRegistry& metrics() const { return metrics_; }

  const zone::ViewTable& views() const { return *views_; }

 private:
  // Counts one answered query whose response has `rcode` and `bytes`.
  void CountResponse(dns::Rcode rcode, size_t bytes);
  // The decode path, for queries dns::ParseWireQuery rejects.
  Result<Bytes> HandleDecoded(std::span<const uint8_t> wire,
                              IpAddress source, size_t udp_limit);
  dns::Message AnswerDecoded(const dns::Message& query, IpAddress source);

  std::shared_ptr<const zone::ViewTable> views_;
  std::unique_ptr<ResponseCache> cache_;  // nullptr = disabled
  std::unique_ptr<stats::MetricsRegistry> own_metrics_;
  stats::MetricsRegistry& metrics_;
  // Bumped only by the owning thread, read from anywhere.
  stats::Ledger<kEngineLedger> ledger_;
  // Builds compiled answers (single-threaded, like the engine).
  zone::WireAnswerer answerer_;
};

}  // namespace ldp::server

#endif  // LDPLAYER_SERVER_ENGINE_H
