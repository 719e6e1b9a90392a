// Authoritative zone data: a name → RRsets map in canonical DNS order, each
// name's RRsets in one vector sorted by RRType, with the apex bookkeeping a
// server needs (SOA, apex NS, zone cuts).
//
// RRset pointers from FindRRset, FindNode, Soa and ApexNs stay valid only
// until the next AddRecord or AddRRset on the same zone: an add may insert
// into a name's RRset vector and move its RRsets. Copy what is needed (a
// TTL, an rdata) before adding.
#ifndef LDPLAYER_ZONE_ZONE_H
#define LDPLAYER_ZONE_ZONE_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dns/name.h"
#include "dns/rr.h"

namespace ldp::zone {

class Zone {
 public:
  explicit Zone(dns::Name origin) : origin_(std::move(origin)) {}

  const dns::Name& origin() const { return origin_; }

  // Merges a record into its RRset. Records outside the origin are rejected;
  // duplicate rdata is dropped silently (DNS sets have set semantics). The
  // RRset TTL is the first record's TTL.
  Status AddRecord(const dns::ResourceRecord& record);
  Status AddRRset(const dns::RRset& rrset);

  // nullptr when absent.
  const dns::RRset* FindRRset(const dns::Name& name, dns::RRType type) const;
  // All RRsets at a name (empty when the node does not exist).
  std::vector<const dns::RRset*> FindNode(const dns::Name& name) const;
  bool HasNode(const dns::Name& name) const { return nodes_.count(name) > 0; }

  // True if `name` does not exist but some existing name is below it —
  // an empty non-terminal, which must answer NODATA rather than NXDOMAIN.
  bool IsEmptyNonTerminal(const dns::Name& name) const;

  const dns::RRset* Soa() const { return FindRRset(origin_, dns::RRType::kSOA); }
  const dns::RRset* ApexNs() const {
    return FindRRset(origin_, dns::RRType::kNS);
  }

  // Names with NS RRsets strictly below the apex: the zone's cuts.
  std::vector<dns::Name> DelegationPoints() const;

  // The RRset of `type` at the canonically greatest owner name <= `name`
  // that has one, or nullptr. Drives covering-NSEC selection for DNSSEC
  // denial of existence.
  const dns::RRset* FindPredecessorWithType(const dns::Name& name,
                                            dns::RRType type) const;

  size_t record_count() const { return record_count_; }
  size_t node_count() const { return nodes_.size(); }

  // Visits RRsets in canonical order: by name, then by ascending RRType.
  void ForEachRRset(
      const std::function<void(const dns::RRset&)>& visit) const;

  // A zone is servable when it has a SOA and apex NS set.
  Status Validate() const;

  // Estimated in-memory footprint in bytes (names + rdata), used by the
  // hierarchy-emulation ablation bench.
  size_t MemoryFootprint() const;

 private:
  // A name's RRsets in ascending RRType order. A name holds a handful of
  // types, so a sorted vector finds one in a few compares and costs each
  // RRset its own size, where a map node would add ~56 bytes of tree links.
  using Node = std::vector<dns::RRset>;

  dns::Name origin_;
  std::map<dns::Name, Node> nodes_;  // canonical order (dns::Name::operator<)
  size_t record_count_ = 0;
};

using ZonePtr = std::shared_ptr<Zone>;

}  // namespace ldp::zone

#endif  // LDPLAYER_ZONE_ZONE_H
