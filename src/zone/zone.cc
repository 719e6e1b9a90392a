#include "zone/zone.h"

#include <algorithm>
#include <functional>

namespace ldp::zone {
namespace {

// The first RRset of a name's type-sorted `node` whose type is not below
// `type`.
template <typename NodeT>
auto LowerBound(NodeT& node, dns::RRType type) {
  return std::lower_bound(
      node.begin(), node.end(), type,
      [](const dns::RRset& rrset, dns::RRType t) { return rrset.type < t; });
}

const dns::RRset* FindType(const std::vector<dns::RRset>& node,
                           dns::RRType type) {
  auto it = LowerBound(node, type);
  return it != node.end() && it->type == type ? &*it : nullptr;
}

}  // namespace

Status Zone::AddRecord(const dns::ResourceRecord& record) {
  if (!record.name.IsSubdomainOf(origin_)) {
    return Error(ErrorCode::kInvalidArgument,
                 record.name.ToString() + " is outside zone " +
                     origin_.ToString());
  }
  Node& node = nodes_[record.name];
  auto it = LowerBound(node, record.type);
  if (it == node.end() || it->type != record.type) {
    it = node.insert(it, dns::RRset{record.name, record.type, record.klass,
                                    record.ttl, {}});
  }
  dns::RRset& rrset = *it;
  if (std::find(rrset.rdatas.begin(), rrset.rdatas.end(), record.rdata) !=
      rrset.rdatas.end()) {
    return Status::Ok();  // duplicate rdata: set semantics
  }
  rrset.rdatas.push_back(record.rdata);
  ++record_count_;
  return Status::Ok();
}

Status Zone::AddRRset(const dns::RRset& rrset) {
  for (const auto& record : rrset.ToRecords()) {
    LDP_RETURN_IF_ERROR(AddRecord(record));
  }
  return Status::Ok();
}

const dns::RRset* Zone::FindRRset(const dns::Name& name,
                                  dns::RRType type) const {
  auto node_it = nodes_.find(name);
  if (node_it == nodes_.end()) return nullptr;
  return FindType(node_it->second, type);
}

std::vector<const dns::RRset*> Zone::FindNode(const dns::Name& name) const {
  std::vector<const dns::RRset*> out;
  auto node_it = nodes_.find(name);
  if (node_it == nodes_.end()) return out;
  out.reserve(node_it->second.size());
  for (const auto& rrset : node_it->second) out.push_back(&rrset);
  return out;
}

bool Zone::IsEmptyNonTerminal(const dns::Name& name) const {
  if (nodes_.count(name)) return false;
  // In canonical order every descendant of `name` sorts after it, so the
  // first stored name >= `name` is a descendant iff any descendant exists.
  auto it = nodes_.lower_bound(name);
  return it != nodes_.end() && it->first.IsSubdomainOf(name);
}

std::vector<dns::Name> Zone::DelegationPoints() const {
  std::vector<dns::Name> cuts;
  for (const auto& [name, node] : nodes_) {
    if (name == origin_) continue;
    if (FindType(node, dns::RRType::kNS) != nullptr) cuts.push_back(name);
  }
  return cuts;
}

const dns::RRset* Zone::FindPredecessorWithType(const dns::Name& name,
                                                dns::RRType type) const {
  auto it = nodes_.upper_bound(name);
  while (it != nodes_.begin()) {
    --it;
    if (const dns::RRset* rrset = FindType(it->second, type)) return rrset;
  }
  return nullptr;
}

void Zone::ForEachRRset(
    const std::function<void(const dns::RRset&)>& visit) const {
  for (const auto& [name, node] : nodes_) {
    for (const auto& rrset : node) visit(rrset);
  }
}

Status Zone::Validate() const {
  if (Soa() == nullptr) {
    return Error(ErrorCode::kInvalidArgument,
                 "zone " + origin_.ToString() + " lacks a SOA record");
  }
  if (ApexNs() == nullptr) {
    return Error(ErrorCode::kInvalidArgument,
                 "zone " + origin_.ToString() + " lacks apex NS records");
  }
  return Status::Ok();
}

size_t Zone::MemoryFootprint() const {
  size_t bytes = 0;
  for (const auto& [name, node] : nodes_) {
    bytes += name.WireLength() + sizeof(Node) +
             node.capacity() * sizeof(dns::RRset);
    for (const auto& rrset : node) {
      for (const auto& rdata : rrset.rdatas) {
        bytes += dns::RdataWireLength(rdata) + sizeof(dns::Rdata);
      }
    }
  }
  return bytes;
}

}  // namespace ldp::zone
