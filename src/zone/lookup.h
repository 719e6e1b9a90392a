// Authoritative lookup (RFC 1034 §4.3.2): exact answers, CNAME chasing
// within the zone, wildcard synthesis (RFC 4592), referrals at zone cuts
// with glue, and negative answers (NXDOMAIN / NODATA with SOA).
//
// This is the algorithm whose *absence of shortcuts* LDplayer's hierarchy
// emulation depends on: a query that crosses a zone cut must produce a
// referral, never a direct answer from a deeper zone.
//
// Lookup and BuildResponse are the reference oracle. The engine answers
// plain queries from compiled zones (compiled.h), which must produce the
// bytes BuildResponse(...).Encode(limit) gives (tests/compiled_oracle.h);
// in production these functions serve only the query shapes
// dns::ParseWireQuery rejects. Change them together with compiled.cc.
#ifndef LDPLAYER_ZONE_LOOKUP_H
#define LDPLAYER_ZONE_LOOKUP_H

#include <vector>

#include "dns/message.h"
#include "zone/zone.h"

namespace ldp::zone {

enum class LookupOutcome {
  kAnswer,      // exact or wildcard data in answers
  kCname,       // answers hold a CNAME chain; final target may be off-zone
  kDelegation,  // authority holds the cut's NS, additional holds glue
  kNoData,      // name exists (or is an empty non-terminal), type does not
  kNxDomain,    // name does not exist
  kNotInZone,   // qname is outside this zone entirely
};

struct LookupResult {
  LookupOutcome outcome = LookupOutcome::kNotInZone;
  std::vector<dns::RRset> answers;
  std::vector<dns::RRset> authority;
  std::vector<dns::RRset> additional;
  bool wildcard = false;  // answer was synthesized from a wildcard
};

LookupResult Lookup(const Zone& zone, const dns::Name& qname,
                    dns::RRType qtype);

// Builds a complete response message for `query` from `zone`: sets
// AA/rcode/sections per the lookup outcome. When `include_dnssec` is false,
// RRSIG records are stripped from all sections (how a server answers
// DO=0 queries from a signed zone).
dns::Message BuildResponse(const Zone& zone, const dns::Message& query,
                           bool include_dnssec);

}  // namespace ldp::zone

#endif  // LDPLAYER_ZONE_LOOKUP_H
