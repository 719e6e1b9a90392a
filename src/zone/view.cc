#include "zone/view.h"

namespace ldp::zone {

Status ZoneSet::AddZone(ZonePtr zone) {
  if (zone == nullptr) {
    return Error(ErrorCode::kInvalidArgument, "null zone");
  }
  auto [it, inserted] = zones_.emplace(zone->origin(), zone);
  if (!inserted) {
    return Error(ErrorCode::kAlreadyExists,
                 "zone already present: " + it->first.ToString());
  }
  compiled_.push_back(std::make_shared<const CompiledZone>(*zone));
  compiled_by_origin_.Insert(compiled_.back()->origin(),
                             static_cast<uint32_t>(compiled_.size() - 1));
  return Status::Ok();
}

const Zone* ZoneSet::FindBestZone(const dns::Name& qname) const {
  // Walk the ancestor chain from qname to the root; the first hit is the
  // deepest origin. O(labels) hash lookups.
  dns::Name current = qname;
  while (true) {
    auto it = zones_.find(current);
    if (it != zones_.end()) return it->second.get();
    if (current.IsRoot()) return nullptr;
    current = *current.Parent();
  }
}

const CompiledZone* ZoneSet::FindBestCompiled(
    const dns::WireNameView& qname) const {
  for (size_t i = 0; i <= qname.labels; ++i) {
    uint32_t index = compiled_by_origin_.Find(qname, i);
    if (index != WireNameTable::kMissing) return compiled_[index].get();
  }
  return nullptr;
}

ZonePtr ZoneSet::FindZone(const dns::Name& origin) const {
  auto it = zones_.find(origin);
  return it == zones_.end() ? nullptr : it->second;
}

std::vector<dns::Name> ZoneSet::Origins() const {
  std::vector<dns::Name> out;
  out.reserve(zones_.size());
  for (const auto& [origin, zone] : zones_) out.push_back(origin);
  return out;
}

size_t ZoneSet::TotalMemoryFootprint() const {
  size_t total = 0;
  for (const auto& [origin, zone] : zones_) {
    total += zone->MemoryFootprint();
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
