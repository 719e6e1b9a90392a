#include "zone/view.h"

namespace ldp::zone {

Status ZoneSet::AddZone(ZonePtr zone) {
  if (zone == nullptr) {
    return Error(ErrorCode::kInvalidArgument, "null zone");
  }
  const dns::IndexedWireName origin(zone->origin().wire());
  if (Find(origin.view()) != WireNameTable::kMissing) {
    return Error(ErrorCode::kAlreadyExists,
                 "zone already present: " + zone->origin().ToString());
  }
  auto compiled = std::make_shared<const CompiledZone>(*zone);
  zones_.push_back(Entry{std::move(zone), std::move(compiled)});
  const size_t count = zones_.size();
  if (compiled_by_origin_.size() < WireNameTable::SlotCount(count)) {
    std::vector<WireNameTable::Slot> grown(WireNameTable::SlotCount(2 * count));
    WireNameTable::Rehash(compiled_by_origin_, grown);
    compiled_by_origin_.swap(grown);
  }
  WireNameTable::Insert(compiled_by_origin_, zones_.back().compiled->origin(),
                        static_cast<uint32_t>(count - 1));
  return Status::Ok();
}

uint32_t ZoneSet::Find(const dns::WireNameView& name, size_t i) const {
  return WireNameTable::Find(
      compiled_by_origin_, name, i,
      [this](uint32_t index) { return zones_[index].compiled->origin(); });
}

uint32_t ZoneSet::FindBest(const dns::WireNameView& name) const {
  // The suffixes from qname up to the root; the first hit is the deepest
  // origin. O(labels) hash lookups.
  for (size_t i = 0; i <= name.labels; ++i) {
    uint32_t index = Find(name, i);
    if (index != WireNameTable::kMissing) return index;
  }
  return WireNameTable::kMissing;
}

const Zone* ZoneSet::FindBestZone(const dns::Name& qname) const {
  uint32_t index = FindBest(dns::IndexedWireName(qname.wire()).view());
  return index == WireNameTable::kMissing ? nullptr : zones_[index].zone.get();
}

const CompiledZone* ZoneSet::FindBestCompiled(
    const dns::WireNameView& qname) const {
  uint32_t index = FindBest(qname);
  return index == WireNameTable::kMissing ? nullptr
                                          : zones_[index].compiled.get();
}

ZonePtr ZoneSet::FindZone(const dns::Name& origin) const {
  uint32_t index = Find(dns::IndexedWireName(origin.wire()).view());
  return index == WireNameTable::kMissing ? nullptr : zones_[index].zone;
}

std::vector<dns::Name> ZoneSet::Origins() const {
  std::vector<dns::Name> out;
  out.reserve(zones_.size());
  for (const Entry& entry : zones_) out.push_back(entry.zone->origin());
  return out;
}

size_t ZoneSet::TotalMemoryFootprint() const {
  size_t total = 0;
  for (const Entry& entry : zones_) {
    total += entry.zone->MemoryFootprint() + entry.compiled->MemoryFootprint();
  }
  return total;
}

Status ViewTable::AddView(std::string name,
                          const std::vector<IpAddress>& sources,
                          ZoneSet zones) {
  size_t index = views_.size();
  for (const IpAddress& source : sources) {
    auto [it, inserted] = source_to_view_.emplace(source, index);
    if (!inserted) {
      return Error(ErrorCode::kAlreadyExists,
                   "source " + source.ToString() + " already matches view " +
                       views_[it->second].name);
    }
  }
  views_.push_back(View{std::move(name), std::move(zones)});
  return Status::Ok();
}

const ZoneSet* ViewTable::Match(const IpAddress& source) const {
  auto it = source_to_view_.find(source);
  if (it != source_to_view_.end()) return &views_[it->second].zones;
  return &default_view_;
}

}  // namespace ldp::zone
