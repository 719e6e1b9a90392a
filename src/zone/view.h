// Split-horizon DNS (paper §2.4): the meta-DNS-server hosts many zones on
// one listener and selects the zone by the *source address* of the query —
// which, after the recursive proxy's rewrite, is the original query
// destination address (OQDA), i.e. the public address of the nameserver the
// recursive believed it was asking.
#ifndef LDPLAYER_ZONE_VIEW_H
#define LDPLAYER_ZONE_VIEW_H

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ip.h"
#include "common/result.h"
#include "dns/wire.h"
#include "zone/compiled.h"
#include "zone/zone.h"

namespace ldp::zone {

// A set of zones served together; the deepest origin containing the qname
// answers (longest-suffix match, like a server with several zone clauses).
// Each zone is compiled (compiled.h) when added; copies of a set share the
// compiled indexes. One index of folded origins serves both the compiled
// and the reference lookups.
class ZoneSet {
 public:
  // Adds and compiles `zone`, which must not change afterwards.
  Status AddZone(ZonePtr zone);

  // The zone whose origin is the longest ancestor of `qname`, or nullptr.
  const Zone* FindBestZone(const dns::Name& qname) const;
  // The same choice over compiled indexes, for an indexed wire qname.
  const CompiledZone* FindBestCompiled(const dns::WireNameView& qname) const;
  ZonePtr FindZone(const dns::Name& origin) const;

  size_t zone_count() const { return zones_.size(); }
  // In the order the zones were added.
  std::vector<dns::Name> Origins() const;
  // The source zones' estimated footprint plus their compiled indexes'.
  size_t TotalMemoryFootprint() const;

 private:
  // The index of the zone whose origin is `name` (the suffix of it from
  // label i on), or WireNameTable::kMissing.
  uint32_t Find(const dns::WireNameView& name, size_t i = 0) const;
  // The index of the zone with the longest origin at or above `name`, or
  // WireNameTable::kMissing.
  uint32_t FindBest(const dns::WireNameView& name) const;

  // A zone and its compiled index, side by side in one vector.
  struct Entry {
    ZonePtr zone;
    std::shared_ptr<const CompiledZone> compiled;
  };
  std::vector<Entry> zones_;
  // Folded origin -> index in zones_.
  std::vector<WireNameTable::Slot> compiled_by_origin_;
};

// BIND-style views with match-clients lists of explicit addresses. The
// LDplayer deployment gives every zone's nameserver addresses their own
// view, so the OQDA uniquely selects the level of the hierarchy.
class ViewTable {
 public:
  // Adds a view matching the given source addresses. Address collisions
  // across views are an error: they would make zone selection ambiguous —
  // exactly the failure the paper's design avoids.
  Status AddView(std::string name, const std::vector<IpAddress>& sources,
                 ZoneSet zones);

  // Fallback when no view matches (BIND: match-clients { any; }).
  void SetDefaultView(ZoneSet zones) { default_view_ = std::move(zones); }

  // The zone set for this query source, or the default view.
  const ZoneSet* Match(const IpAddress& source) const;

  size_t view_count() const { return views_.size(); }

 private:
  struct View {
    std::string name;
    ZoneSet zones;
  };
  std::vector<View> views_;
  std::unordered_map<IpAddress, size_t> source_to_view_;
  ZoneSet default_view_;
};

}  // namespace ldp::zone

#endif  // LDPLAYER_ZONE_VIEW_H
