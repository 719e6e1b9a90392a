// Attack-trace generators (paper §1/§5: "study of server hardware and
// software under denial-of-service attack"). Each generator emits a plain
// trace::QueryRecord vector, so attack traffic rides the exact machinery
// legitimate replay uses — the mutation pipeline, the sim engine, and the
// real-socket realtime replayer — and overlays compose with any base trace
// by timestamp merge.
//
// This is the single source of truth for attack traffic: the scenario
// engine (src/scenario/), `ldp_mutate_trace --attack`, and
// `bench/ext_dos_attack` all draw from here.
#ifndef LDPLAYER_MUTATE_ATTACK_H
#define LDPLAYER_MUTATE_ATTACK_H

#include <string_view>
#include <vector>

#include "common/ip.h"
#include "common/result.h"
#include "common/rng.h"
#include "dns/name.h"
#include "trace/record.h"

namespace ldp::mutate {

// Spoofed attack sources are drawn from one reserved /8 — 11.0.0.0/8,
// unassigned in every testbed this repo builds (hierarchies use 198.51./
// 203.0. documentation space, replay clients use 127/8 and 10/8) — so
// attack traffic is separable from legitimate traffic by source prefix
// alone, in traces and in catchment maps alike.
inline constexpr IpAddress kSpoofedSourceBase = IpAddress(11, 0, 0, 0);
inline constexpr int kSpoofedSourcePrefixBits = 8;
static_assert((kSpoofedSourceBase.value() &
               ((1u << (32 - kSpoofedSourcePrefixBits)) - 1)) == 0,
              "spoofed-source base must sit on its /8 boundary");

// A uniform draw from the spoofed /8 (never the network address itself).
IpAddress SpoofedSource(Rng& rng);

// True iff `addr` lies inside the spoofed-source /8 — the separability
// predicate benches use to split attack from legitimate outcomes.
constexpr bool IsSpoofedSource(IpAddress addr) {
  constexpr uint32_t mask =
      ~((1u << (32 - kSpoofedSourcePrefixBits)) - 1);
  return (addr.value() & mask) == kSpoofedSourceBase.value();
}

enum class AttackKind {
  // Random-subdomain flood: every query a unique junk name under the apex,
  // guaranteed NXDOMAIN. Bypasses the response cache (no two queries share
  // a cache key) and stresses view lookup plus the negative-answer path.
  kNxdomainFlood,
  // DNSSEC amplification: ANY/DNSKEY queries with DO + EDNS 4096 at the
  // apex of a signed zone. Tiny queries, signature-laden responses — the
  // classic reflection amplifier. Pair with scenario::ComputeAmplification
  // to get the response/query byte ratio off the signed zone.
  kAmplification,
  // Spoofed-source flood: a cheap, cacheable query repeated from a churn
  // of distinct spoofed endpoints. Harmless to the server, hostile to
  // per-client middlebox state. HierarchyProxy keeps none: each query
  // takes the next slot of its ID ring whatever its source, so the flood
  // costs ring slots, not state; a slot left unanswered for a whole wrap
  // is reclaimed (proxy.reclaimed) and a reply to it is dropped and
  // counted (proxy.evicted_drops).
  kSpoofedFlood,
};

std::string_view AttackKindName(AttackKind kind);
Result<AttackKind> AttackKindFromString(std::string_view text);

struct AttackConfig {
  AttackKind kind = AttackKind::kNxdomainFlood;
  double rate_qps = 1000;
  NanoDuration duration = Seconds(10);
  // Timestamp of the first attack query (trace-epoch relative), so an
  // overlay can start mid-trace.
  NanoTime start = 0;
  // Where attack queries go: the victim nameserver's address (an OQDA when
  // the attack rides through the hierarchy proxy).
  IpAddress server;
  uint16_t dst_port = 53;
  // Zone under attack: junk subdomains go below it (NXDOMAIN flood), and
  // amplification queries ask for its apex RRsets.
  dns::Name apex;  // default-constructed = root
  trace::Protocol protocol = trace::Protocol::kUdp;
  // Distinct spoofed sources to cycle through (spoofed flood); the
  // NXDOMAIN and amplification floods draw a fresh source per query.
  size_t n_sources = 1 << 16;
  uint64_t seed = 0xa77ac;
};

// Generates the attack trace for `config`: ceil(rate * duration) records,
// evenly spaced over [start, start + duration), sources inside
// kSpoofedSourceBase/8. Deterministic in the seed.
std::vector<trace::QueryRecord> MakeAttackTrace(const AttackConfig& config);

// Merges `attack` into `base` by timestamp (stable: base records win ties)
// and returns a mask aligned with the merged `base`, true where the record
// came from the overlay. The mask lines up with RealtimeReport::sends, so
// per-class outcome accounting falls out of one replay.
std::vector<bool> OverlayAttack(std::vector<trace::QueryRecord>& base,
                                std::vector<trace::QueryRecord> attack);

}  // namespace ldp::mutate

#endif  // LDPLAYER_MUTATE_ATTACK_H
