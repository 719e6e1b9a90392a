#include "zone/compiled.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "zone/view.h"

namespace ldp::zone {
namespace {

constexpr uint16_t kTypeA = static_cast<uint16_t>(dns::RRType::kA);
constexpr uint16_t kTypeAaaa = static_cast<uint16_t>(dns::RRType::kAAAA);
constexpr uint16_t kTypeSoa = static_cast<uint16_t>(dns::RRType::kSOA);
constexpr uint16_t kTypeNs = static_cast<uint16_t>(dns::RRType::kNS);
constexpr uint16_t kTypeCname = static_cast<uint16_t>(dns::RRType::kCNAME);
constexpr uint16_t kTypeDs = static_cast<uint16_t>(dns::RRType::kDS);
constexpr uint16_t kTypeRrsig = static_cast<uint16_t>(dns::RRType::kRRSIG);
constexpr uint16_t kTypeNsec = static_cast<uint16_t>(dns::RRType::kNSEC);
constexpr uint16_t kTypeAny = static_cast<uint16_t>(dns::RRType::kANY);

constexpr size_t kOptSize = 11;  // root owner, TYPE, CLASS, TTL, RDLENGTH

size_t Bucket(uint64_t hash, size_t mask) {
  return static_cast<size_t>(hash ^ (hash >> 29)) & mask;
}

void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v & 0xff);
}

// The in-zone names BuildResponse looks up addresses for when a record of
// this rdata is in the answer section.
const dns::Name* AdditionalTarget(const dns::Rdata& rdata) {
  if (const auto* ns = std::get_if<dns::NsRdata>(&rdata)) return &ns->nsdname;
  if (const auto* mx = std::get_if<dns::MxRdata>(&rdata)) return &mx->exchange;
  if (const auto* srv = std::get_if<dns::SrvRdata>(&rdata)) return &srv->target;
  return nullptr;
}

}  // namespace

// --- WireNameTable ---

void WireNameTable::Insert(const dns::WireNameView& name, uint32_t value) {
  if ((size_ + 1) * 2 > slots_.size()) Grow();
  Slot slot;
  slot.hash = static_cast<uint32_t>(name.hashes[0]);
  slot.key = static_cast<uint32_t>(keys_.size());
  slot.value = value;
  slot.len = name.len;
  keys_.insert(keys_.end(), name.folded, name.folded + name.len);
  size_t mask = slots_.size() - 1;
  size_t i = Bucket(slot.hash, mask);
  while (slots_[i].value != kMissing) i = (i + 1) & mask;
  slots_[i] = slot;
  ++size_;
}

uint32_t WireNameTable::Find(const dns::WireNameView& name, size_t i) const {
  if (slots_.empty()) return kMissing;
  uint32_t hash = static_cast<uint32_t>(name.hashes[i]);
  size_t len = name.SuffixLength(i);
  const uint8_t* folded = name.SuffixFolded(i);
  size_t mask = slots_.size() - 1;
  for (size_t at = Bucket(hash, mask);; at = (at + 1) & mask) {
    const Slot& slot = slots_[at];
    if (slot.value == kMissing) return kMissing;
    if (slot.hash == hash && slot.len == len &&
        std::memcmp(keys_.data() + slot.key, folded, len) == 0) {
      return slot.value;
    }
  }
}

void WireNameTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(8, old.size() * 2), Slot{});
  size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.value == kMissing) continue;
    size_t i = Bucket(slot.hash, mask);
    while (slots_[i].value != kMissing) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

// --- CompiledZone ---

namespace {

// Where one interned name lives while the index is being built (the
// vectors still grow, so views are materialized only at the end).
struct NameLoc {
  uint32_t bytes;   // wire, then folded, then offsets, in name_bytes
  uint32_t hashes;  // in name_hashes
  uint16_t len;
  uint16_t labels;
};

}  // namespace

// Build-time state: name interning (an open-addressed table over the exact
// wire bytes) and each RRset's source and node.
struct CompiledZone::BuildState {
  std::vector<NameLoc> locs;
  std::vector<uint64_t> exact_hashes;  // per name
  std::vector<uint32_t> slots;         // name index + 1; 0 = empty
  std::vector<const dns::RRset*> sources;  // rrsets_ index -> zone RRset
  std::vector<uint32_t> rrset_node;        // rrsets_ index -> nodes_ index
};

dns::WireNameView CompiledZone::View(uint32_t name) const {
  const NameLoc& loc = build_->locs[name];
  dns::WireNameView view;
  view.wire = name_bytes_.data() + loc.bytes;
  view.folded = view.wire + loc.len;
  view.offsets = view.folded + loc.len;
  view.hashes = name_hashes_.data() + loc.hashes;
  view.len = loc.len;
  view.labels = loc.labels;
  return view;
}

uint32_t CompiledZone::InternWire(std::span<const uint8_t> wire) {
  BuildState& b = *build_;
  uint64_t hash = 0xcbf29ce484222325ull;
  for (uint8_t byte : wire) hash = (hash ^ byte) * 0x100000001b3ull;
  if ((b.locs.size() + 1) * 2 > b.slots.size()) {
    b.slots.assign(std::max<size_t>(64, b.slots.size() * 2), 0);
    size_t mask = b.slots.size() - 1;
    for (uint32_t name = 0; name < b.locs.size(); ++name) {
      size_t at = Bucket(b.exact_hashes[name], mask);
      while (b.slots[at] != 0) at = (at + 1) & mask;
      b.slots[at] = name + 1;
    }
  }
  size_t mask = b.slots.size() - 1;
  size_t at = Bucket(hash, mask);
  for (; b.slots[at] != 0; at = (at + 1) & mask) {
    uint32_t name = b.slots[at] - 1;
    const NameLoc& loc = b.locs[name];
    if (b.exact_hashes[name] == hash && loc.len == wire.size() &&
        std::memcmp(name_bytes_.data() + loc.bytes, wire.data(),
                    wire.size()) == 0) {
      return name;
    }
  }
  uint32_t name = static_cast<uint32_t>(b.locs.size());
  b.slots[at] = name + 1;

  uint8_t folded[dns::kMaxNameWireLength];
  uint8_t offsets[dns::kMaxWireLabels];
  uint64_t hashes[dns::kMaxWireLabels];
  size_t labels = dns::IndexWireName(wire, folded, offsets, hashes);
  b.locs.push_back(NameLoc{static_cast<uint32_t>(name_bytes_.size()),
                           static_cast<uint32_t>(name_hashes_.size()),
                           static_cast<uint16_t>(wire.size()),
                           static_cast<uint16_t>(labels)});
  b.exact_hashes.push_back(hash);
  name_bytes_.insert(name_bytes_.end(), wire.begin(), wire.end());
  name_bytes_.insert(name_bytes_.end(), folded, folded + wire.size());
  name_bytes_.insert(name_bytes_.end(), offsets, offsets + labels + 1);
  name_hashes_.insert(name_hashes_.end(), hashes, hashes + labels + 1);
  return name;
}

uint32_t CompiledZone::InternName(const dns::Name& name) {
  return InternWire(name.wire());
}

uint32_t CompiledZone::AddRRset(const dns::RRset& rrset) {
  RRset out;
  out.type = static_cast<uint16_t>(rrset.type);
  out.owner = InternName(rrset.name);
  PutU16(out.fixed, out.type);
  PutU16(out.fixed + 2, static_cast<uint16_t>(rrset.klass));
  PutU16(out.fixed + 4, static_cast<uint16_t>(rrset.ttl >> 16));
  PutU16(out.fixed + 6, static_cast<uint16_t>(rrset.ttl & 0xffff));
  out.rdata_begin = static_cast<uint32_t>(rdatas_.size());
  for (const dns::Rdata& rdata : rrset.rdatas) {
    Rdata info;
    info.bytes = static_cast<uint32_t>(rdata_bytes_.size());
    // The names EncodeRdata compresses are written as plain wire here and
    // marked; every other byte is exactly what EncodeRdata emits.
    auto add_name = [&](const dns::Name& name) {
      info.name_pos[info.n_names] =
          static_cast<uint16_t>(rdata_bytes_.size() - info.bytes);
      info.name[info.n_names] = InternName(name);
      ++info.n_names;
      std::span<const uint8_t> wire = name.wire();
      rdata_bytes_.insert(rdata_bytes_.end(), wire.begin(), wire.end());
    };
    if (const auto* ns = std::get_if<dns::NsRdata>(&rdata)) {
      add_name(ns->nsdname);
    } else if (const auto* cname = std::get_if<dns::CnameRdata>(&rdata)) {
      add_name(cname->target);
    } else if (const auto* ptr = std::get_if<dns::PtrRdata>(&rdata)) {
      add_name(ptr->target);
    } else if (const auto* mx = std::get_if<dns::MxRdata>(&rdata)) {
      rdata_bytes_.push_back(static_cast<uint8_t>(mx->preference >> 8));
      rdata_bytes_.push_back(static_cast<uint8_t>(mx->preference & 0xff));
      add_name(mx->exchange);
    } else if (const auto* soa = std::get_if<dns::SoaRdata>(&rdata)) {
      add_name(soa->mname);
      add_name(soa->rname);
      ByteWriter tail;
      for (uint32_t v : {soa->serial, soa->refresh, soa->retry, soa->expire,
                         soa->minimum}) {
        tail.WriteU32(v);
      }
      rdata_bytes_.insert(rdata_bytes_.end(), tail.data().begin(),
                          tail.data().end());
    } else {
      dns::NameCompressor unused;  // no other rdata compresses names
      ByteWriter writer;
      dns::EncodeRdata(rdata, unused, writer);
      rdata_bytes_.insert(rdata_bytes_.end(), writer.data().begin(),
                          writer.data().end());
    }
    info.len = static_cast<uint32_t>(rdata_bytes_.size() - info.bytes);
    rdatas_.push_back(info);
  }
  out.rdata_end = static_cast<uint32_t>(rdatas_.size());
  if (!rrset.rdatas.empty()) {
    if (const auto* cname =
            std::get_if<dns::CnameRdata>(&rrset.rdatas.front())) {
      out.cname_target = InternName(cname->target);
    }
  }
  rrsets_.push_back(out);
  return static_cast<uint32_t>(rrsets_.size() - 1);
}

uint32_t CompiledZone::FindType(uint32_t node, uint16_t type) const {
  const Node& n = nodes_[node];
  for (uint32_t i = n.rrsets_begin; i < n.rrsets_end; ++i) {
    if (rrsets_[node_rrsets_[i]].type == type) return node_rrsets_[i];
  }
  return kNone;
}

uint32_t CompiledZone::CoveringNsec(const dns::WireNameView& name) const {
  auto it = std::upper_bound(
      nsec_rrsets_.begin(), nsec_rrsets_.end(), name,
      [&](const dns::WireNameView& key, uint32_t rrset) {
        return dns::CanonicalCompare(key, names_[rrsets_[rrset].owner]) < 0;
      });
  return it == nsec_rrsets_.begin() ? kNone : *(it - 1);
}

uint32_t CompiledZone::CoveringSigs(uint32_t node, uint16_t type) const {
  const Node& n = nodes_[node];
  for (uint32_t i = n.sigs_begin; i < n.sigs_end; ++i) {
    if (sigs_by_type_[i].type == type) return sigs_by_type_[i].rrset;
  }
  return kNone;
}

CompiledZone::CompiledZone(const Zone& zone) {
  BuildState build;
  build_ = &build;
  origin_ = InternName(zone.origin());

  // 1. Nodes with data, in canonical order, each with its RRsets in type
  // order (ForEachRRset visits node by node).
  const dns::Name* last_owner = nullptr;
  zone.ForEachRRset([&](const dns::RRset& rrset) {
    if (last_owner == nullptr || !(*last_owner == rrset.name)) {
      Node node;
      node.name = InternName(rrset.name);
      node.exists = true;
      node.rrsets_begin = static_cast<uint32_t>(node_rrsets_.size());
      node.rrsets_end = node.rrsets_begin;
      nodes_.push_back(node);
      node_table_.Insert(View(node.name),
                         static_cast<uint32_t>(nodes_.size() - 1));
      last_owner = &rrset.name;
    }
    uint32_t index = AddRRset(rrset);
    build.sources.push_back(&rrset);
    build.rrset_node.push_back(static_cast<uint32_t>(nodes_.size() - 1));
    node_rrsets_.push_back(index);
    nodes_.back().rrsets_end = static_cast<uint32_t>(node_rrsets_.size());
  });
  const size_t data_nodes = nodes_.size();
  const size_t data_rrsets = rrsets_.size();
  const size_t origin_labels = View(origin_).labels;

  // 2. RRSIG sets split by covered type, in rdata order (what
  // RrsigsCovering returns).
  for (uint32_t node = 0; node < data_nodes; ++node) {
    nodes_[node].sigs_begin = static_cast<uint32_t>(sigs_by_type_.size());
    uint32_t all = FindType(node, kTypeRrsig);
    if (all != kNone) {
      const dns::RRset* source = build.sources[all];
      std::vector<uint16_t> covered;
      for (const dns::Rdata& rdata : source->rdatas) {
        const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
        if (sig == nullptr) continue;
        uint16_t type = static_cast<uint16_t>(sig->type_covered);
        if (std::find(covered.begin(), covered.end(), type) == covered.end()) {
          covered.push_back(type);
        }
      }
      for (uint16_t type : covered) {
        RRset split = rrsets_[all];
        split.rdata_begin = static_cast<uint32_t>(rdatas_.size());
        for (uint32_t i = 0; i < source->rdatas.size(); ++i) {
          const auto* sig = std::get_if<dns::RrsigRdata>(&source->rdatas[i]);
          if (sig != nullptr &&
              static_cast<uint16_t>(sig->type_covered) == type) {
            Rdata copy = rdatas_[rrsets_[all].rdata_begin + i];
            rdatas_.push_back(copy);
          }
        }
        split.rdata_end = static_cast<uint32_t>(rdatas_.size());
        rrsets_.push_back(split);
        sigs_by_type_.push_back(
            CoveredSigs{type, static_cast<uint32_t>(rrsets_.size() - 1)});
      }
    }
    nodes_[node].sigs_end = static_cast<uint32_t>(sigs_by_type_.size());
  }

  // 3. Empty non-terminals: every missing ancestor of a data node, down to
  // the origin.
  for (uint32_t node = 0; node < data_nodes; ++node) {
    const size_t labels = View(nodes_[node].name).labels;
    for (size_t i = 1; i + origin_labels <= labels; ++i) {
      dns::WireNameView name = View(nodes_[node].name);  // may have moved
      if (node_table_.Find(name, i) != WireNameTable::kMissing) break;
      Bytes wire(name.wire + name.offsets[i], name.wire + name.len);
      Node ent;
      ent.name = InternWire(wire);
      nodes_.push_back(ent);
      node_table_.Insert(View(ent.name),
                         static_cast<uint32_t>(nodes_.size() - 1));
    }
  }

  // 4. Wildcards: link "*.<x>" from x.
  for (uint32_t node = 0; node < data_nodes; ++node) {
    dns::WireNameView name = View(nodes_[node].name);
    if (name.labels <= origin_labels || name.wire[0] != 1 ||
        name.wire[1] != '*') {
      continue;
    }
    uint32_t parent = node_table_.Find(name, 1);
    if (parent != WireNameTable::kMissing) nodes_[parent].wildcard = node;
  }

  // 5. Per RRset: the signatures BuildResponse attaches (at the owner,
  // else at the owner's wildcard sibling, "*.<parent>") and the addresses
  // additional-section processing adds for its targets. Per cut: the
  // referral.
  auto data_node = [&](uint32_t name) {
    uint32_t node = node_table_.Find(View(name));
    return node != WireNameTable::kMissing && nodes_[node].exists ? node
                                                                  : kNone;
  };
  auto addresses_of = [&](const dns::Name& target,
                          std::vector<uint32_t>& out) {
    uint32_t node = data_node(InternName(target));
    if (node == kNone) return;
    for (uint16_t type : {kTypeA, kTypeAaaa}) {
      uint32_t rrset = FindType(node, type);
      if (rrset != kNone) out.push_back(rrset);
    }
  };
  for (uint32_t index = 0; index < data_rrsets; ++index) {
    RRset& rrset = rrsets_[index];
    if (rrset.type != kTypeRrsig) {
      rrset.sigs = CoveringSigs(build.rrset_node[index], rrset.type);
      dns::WireNameView owner = View(rrset.owner);
      uint32_t parent = owner.labels > 0 ? node_table_.Find(owner, 1)
                                         : WireNameTable::kMissing;
      if (rrset.sigs == kNone && parent != WireNameTable::kMissing &&
          nodes_[parent].wildcard != kNone) {
        rrset.sigs = CoveringSigs(nodes_[parent].wildcard, rrset.type);
      }
    }
    rrset.addr_begin = static_cast<uint32_t>(addresses_.size());
    for (const dns::Rdata& rdata : build.sources[index]->rdatas) {
      if (const dns::Name* target = AdditionalTarget(rdata)) {
        addresses_of(*target, addresses_);
      }
    }
    rrsets_[index].addr_end = static_cast<uint32_t>(addresses_.size());
  }
  const uint32_t apex = data_node(origin_);
  for (uint32_t node = 0; node < data_nodes; ++node) {
    Node& n = nodes_[node];
    uint32_t ns = FindType(node, kTypeNs);
    if (ns == kNone || node == apex) continue;
    n.cut = true;
    n.ns = ns;
    n.ds = FindType(node, kTypeDs);
    n.glue_begin = static_cast<uint32_t>(glue_.size());
    for (const dns::Rdata& rdata : build.sources[ns]->rdatas) {
      const auto* target = std::get_if<dns::NsRdata>(&rdata);
      if (target != nullptr && target->nsdname.IsSubdomainOf(zone.origin())) {
        addresses_of(target->nsdname, glue_);
      }
    }
    nodes_[node].glue_end = static_cast<uint32_t>(glue_.size());
  }

  // 6. Negative answers: the SOA, and the NSEC chain in canonical order
  // (with the NSEC covering "*.<origin>" found once).
  if (apex != kNone) soa_ = FindType(apex, kTypeSoa);
  for (uint32_t node = 0; node < data_nodes; ++node) {
    uint32_t nsec = FindType(node, kTypeNsec);
    if (nsec != kNone) nsec_rrsets_.push_back(nsec);
  }
  uint32_t wildcard = kNone;
  if (size_t{View(origin_).len} + 2 <= dns::kMaxNameWireLength) {
    Bytes wire = {1, '*'};
    dns::WireNameView origin = View(origin_);
    wire.insert(wire.end(), origin.wire, origin.wire + origin.len);
    wildcard = InternWire(wire);
  }

  name_bytes_.shrink_to_fit();
  name_hashes_.shrink_to_fit();
  rdata_bytes_.shrink_to_fit();
  rdatas_.shrink_to_fit();
  rrsets_.shrink_to_fit();
  nodes_.shrink_to_fit();
  node_rrsets_.shrink_to_fit();
  sigs_by_type_.shrink_to_fit();
  addresses_.shrink_to_fit();
  glue_.shrink_to_fit();
  nsec_rrsets_.shrink_to_fit();
  names_.reserve(build.locs.size());
  for (uint32_t i = 0; i < build.locs.size(); ++i) names_.push_back(View(i));
  if (wildcard != kNone) wildcard_nsec_ = CoveringNsec(names_[wildcard]);
  build_ = nullptr;
}

// --- WireAnswerer ---

namespace {
// A record is written in full before the size check, so the buffer holds
// the largest message plus one record of the largest rdata.
constexpr size_t kOutSize = 3 * 65536;
}  // namespace

WireAnswerer::WireAnswerer() : out_(new uint8_t[kOutSize]) {}

WireAnswerer::Answer WireAnswerer::Respond(const ZoneSet& zones,
                                           const dns::WireQueryInfo& query,
                                           size_t limit) {
  qname_.wire = query.qname.data();
  qname_.folded = qname_folded_;
  qname_.offsets = qname_offsets_;
  qname_.hashes = qname_hashes_;
  qname_.len = static_cast<uint16_t>(query.qname.size());
  qname_.labels = static_cast<uint16_t>(dns::IndexWireName(
      query.qname, qname_folded_, qname_offsets_, qname_hashes_));
  const CompiledZone* zone = zones.FindBestCompiled(qname_);

  compressor_.Reset();
  answers_.clear();
  visited_.clear();
  added_addresses_.clear();
  counts_[kAnswer] = counts_[kAuthority] = counts_[kAdditional] = 0;
  truncated_ = false;
  uint8_t* out = out_.get();
  pos_ = compressor_.Write(qname_, out, 12);
  std::memcpy(out + pos_, query.qname.data() + query.qname.size(), 4);
  pos_ += 4;
  size_t reserve = query.has_edns ? kOptSize : 0;
  body_limit_ = limit > reserve ? limit - reserve : 0;

  uint16_t opt_payload = 4096;
  bool opt_do = query.do_bit;
  if (zone == nullptr) {
    // No zone for this name in the matched view: REFUSED, echoing the
    // client's advertised payload size.
    rcode_ = dns::Rcode::kRefused;
    aa_ = false;
    opt_payload = static_cast<uint16_t>(query.advertised);
    opt_do = false;
  } else {
    rcode_ = dns::Rcode::kNoError;
    aa_ = true;
    AnswerFromZone(*zone, query.qtype, query.has_edns && query.do_bit);
  }

  uint16_t arcount = counts_[kAdditional];
  if (query.has_edns) {
    uint8_t* opt = out + pos_;
    opt[0] = 0;
    PutU16(opt + 1, static_cast<uint16_t>(dns::RRType::kOPT));
    PutU16(opt + 3, opt_payload);
    opt[5] = 0;  // extended rcode
    opt[6] = 0;  // version
    opt[7] = opt_do ? 0x80 : 0;
    opt[8] = 0;
    PutU16(opt + 9, 0);
    pos_ += kOptSize;
    ++arcount;
  }
  PutU16(out, query.id);
  out[2] = static_cast<uint8_t>(0x80 | (aa_ ? 0x04 : 0) |
                                (truncated_ ? 0x02 : 0) |
                                (query.rd ? 0x01 : 0));
  out[3] = static_cast<uint8_t>(static_cast<uint16_t>(rcode_) & 0xf);
  PutU16(out + 4, 1);
  PutU16(out + 6, counts_[kAnswer]);
  PutU16(out + 8, counts_[kAuthority]);
  PutU16(out + 10, arcount);
  return Answer{std::span<const uint8_t>(out, pos_), rcode_, truncated_};
}

// zone::Lookup followed by BuildResponse's section assembly, step for step
// (lookup.cc), over the index.
void WireAnswerer::AnswerFromZone(const CompiledZone& zone, uint16_t qtype,
                                  bool dnssec) {
  using Node = CompiledZone::Node;
  constexpr uint32_t kNone = CompiledZone::kNone;
  const dns::WireNameView& origin = zone.origin();
  const WireNameTable& table = zone.node_table_;

  // 1. Referral: the highest cut on the path from the apex to qname. A
  // missing name ends the walk, since nothing exists below it.
  for (size_t i = qname_.labels - origin.labels; i-- > 0;) {
    uint32_t node = table.Find(qname_, i);
    if (node == WireNameTable::kMissing) break;
    if (!zone.nodes_[node].cut) continue;
    if (i == 0 && qtype == kTypeDs) break;  // DS is answered above the cut
    Referral(zone, node, dnssec);
    return;
  }

  // 2. Exact match, wildcard synthesis and in-zone CNAME chasing.
  enum class Outcome { kAnswer, kCname, kNoData, kNxDomain, kNone };
  Outcome outcome = Outcome::kNone;
  bool chased = false;    // a CNAME is in the answer
  bool wildcard = false;  // an answer was synthesized from a wildcard
  bool negative = true;   // ends with the SOA (and DNSSEC denial)
  auto sigs_of = [&](uint32_t rrset) {
    return dnssec ? zone.rrsets_[rrset].sigs : kNone;
  };
  // Signatures for an RRset synthesized at `owner`, which has no node:
  // those at "*.<parent of owner>", as RrsigsCovering falls back to.
  auto synthesized_sigs = [&](uint32_t rrset, const dns::WireNameView& owner) {
    uint16_t type = zone.rrsets_[rrset].type;
    if (!dnssec || type == kTypeRrsig) return kNone;
    uint32_t parent = table.Find(owner, 1);
    if (parent == WireNameTable::kMissing) return kNone;
    uint32_t sibling = zone.nodes_[parent].wildcard;
    return sibling == kNone ? kNone : zone.CoveringSigs(sibling, type);
  };
  auto answer = [&](uint32_t rrset, const dns::WireNameView& owner,
                    uint32_t sigs) {
    answers_.push_back(rrset);
    Emit(zone, rrset, owner, kAnswer, sigs);
  };
  // Follows a CNAME answer; false when the chain leaves the zone.
  const dns::WireNameView* current = &qname_;
  auto follow = [&](uint32_t cname) {
    uint32_t target = zone.rrsets_[cname].cname_target;
    if (target == kNone || !zone.names_[target].IsSubdomainOf(origin)) {
      return false;
    }
    current = &zone.names_[target];
    return true;
  };

  while (true) {
    bool seen = false;
    for (const dns::WireNameView* name : visited_) {
      if (name->Equals(*current)) seen = true;
    }
    if (seen) break;  // CNAME loop: stop chasing
    visited_.push_back(current);
    const dns::WireNameView& name = *current;

    uint32_t node = table.Find(name);
    if (node == WireNameTable::kMissing || !zone.nodes_[node].exists) {
      if (node != WireNameTable::kMissing) {  // empty non-terminal
        outcome = Outcome::kNoData;
        break;
      }
      // The closest encloser's wildcard, if it has one.
      uint32_t source = kNone;
      for (size_t i = 1; i + origin.labels <= name.labels; ++i) {
        uint32_t encloser = table.Find(name, i);
        if (encloser == WireNameTable::kMissing) continue;
        source = zone.nodes_[encloser].wildcard;
        break;
      }
      if (source == kNone) {
        outcome = Outcome::kNxDomain;
        break;
      }
      wildcard = true;
      uint32_t cname = zone.FindType(source, kTypeCname);
      if (cname != kNone && qtype != kTypeCname && qtype != kTypeAny) {
        answer(cname, name, synthesized_sigs(cname, name));
        chased = true;
        if (follow(cname)) continue;
        outcome = Outcome::kCname;
        negative = false;
        break;
      }
      uint32_t match = zone.FindType(source, qtype);
      if (match == kNone) {
        outcome = Outcome::kNoData;
        break;
      }
      answer(match, name, synthesized_sigs(match, name));
      outcome = chased ? Outcome::kCname : Outcome::kAnswer;
      negative = false;
      break;
    }

    const Node& n = zone.nodes_[node];
    uint32_t cname = zone.FindType(node, kTypeCname);
    if (cname != kNone && qtype != kTypeCname && qtype != kTypeAny) {
      answer(cname, zone.names_[zone.rrsets_[cname].owner], sigs_of(cname));
      chased = true;
      if (follow(cname)) continue;
      outcome = Outcome::kCname;
      negative = false;
      break;
    }
    if (qtype == kTypeAny) {
      for (uint32_t i = n.rrsets_begin; i < n.rrsets_end; ++i) {
        uint32_t rrset = zone.node_rrsets_[i];
        answer(rrset, zone.names_[zone.rrsets_[rrset].owner], sigs_of(rrset));
      }
      outcome = Outcome::kAnswer;
      negative = false;
      break;
    }
    uint32_t match = zone.FindType(node, qtype);
    if (match != kNone) {
      answer(match, zone.names_[zone.rrsets_[match].owner], sigs_of(match));
      outcome = chased ? Outcome::kCname : Outcome::kAnswer;
      negative = false;
      break;
    }
    outcome = Outcome::kNoData;
    break;
  }
  if (negative && chased) outcome = Outcome::kCname;
  if (outcome == Outcome::kNxDomain) rcode_ = dns::Rcode::kNxDomain;

  // Authority: the SOA for negative caching, then DNSSEC denial.
  if (negative && zone.soa_ != kNone) {
    Emit(zone, zone.soa_, zone.names_[zone.rrsets_[zone.soa_].owner],
         kAuthority, sigs_of(zone.soa_));
  }
  if (dnssec && (outcome == Outcome::kNxDomain ||
                 outcome == Outcome::kNoData || wildcard)) {
    uint32_t nsec = zone.CoveringNsec(qname_);
    if (nsec != kNone) {
      Emit(zone, nsec, zone.names_[zone.rrsets_[nsec].owner], kAuthority,
           zone.rrsets_[nsec].sigs);
    }
    uint32_t wc_nsec = zone.wildcard_nsec_;
    // One NSEC RRset per node, so distinct RRsets have distinct owners.
    if (outcome == Outcome::kNxDomain && nsec != kNone && wc_nsec != kNone &&
        wc_nsec != nsec) {
      Emit(zone, wc_nsec, zone.names_[zone.rrsets_[wc_nsec].owner],
           kAuthority, zone.rrsets_[wc_nsec].sigs);
    }
  }

  // Additional: addresses of NS/MX/SRV targets named in the answer.
  for (uint32_t answer_rrset : answers_) {
    const auto& rrset = zone.rrsets_[answer_rrset];
    for (uint32_t i = rrset.addr_begin; i < rrset.addr_end; ++i) {
      uint32_t address = zone.addresses_[i];
      if (std::find(added_addresses_.begin(), added_addresses_.end(),
                    address) != added_addresses_.end()) {
        continue;
      }
      added_addresses_.push_back(address);
      Emit(zone, address, zone.names_[zone.rrsets_[address].owner],
           kAdditional, sigs_of(address));
    }
  }
}

void WireAnswerer::Referral(const CompiledZone& zone, uint32_t cut,
                            bool dnssec) {
  const auto& node = zone.nodes_[cut];
  const auto& rrsets = zone.rrsets_;
  aa_ = false;
  // The cut's NS set is unsigned (it belongs to the child); DS and glue
  // carry their signatures.
  Emit(zone, node.ns, zone.names_[rrsets[node.ns].owner], kAuthority);
  if (node.ds != CompiledZone::kNone) {
    Emit(zone, node.ds, zone.names_[rrsets[node.ds].owner], kAuthority,
         dnssec ? rrsets[node.ds].sigs : CompiledZone::kNone);
  }
  for (uint32_t i = node.glue_begin; i < node.glue_end; ++i) {
    uint32_t glue = zone.glue_[i];
    Emit(zone, glue, zone.names_[rrsets[glue].owner], kAdditional,
         dnssec ? rrsets[glue].sigs : CompiledZone::kNone);
  }
}

void WireAnswerer::Emit(const CompiledZone& zone, uint32_t rrset,
                        const dns::WireNameView& owner, Section section,
                        uint32_t sigs) {
  EmitRecords(zone, rrset, owner, section);
  if (sigs != CompiledZone::kNone) EmitRecords(zone, sigs, owner, section);
}

void WireAnswerer::EmitRecords(const CompiledZone& zone, uint32_t rrset,
                               const dns::WireNameView& owner,
                               Section section) {
  const auto& set = zone.rrsets_[rrset];
  uint8_t* out = out_.get();
  for (uint32_t r = set.rdata_begin; r < set.rdata_end; ++r) {
    if (truncated_) return;
    const auto& rdata = zone.rdatas_[r];
    size_t before = pos_;
    // Past this a record cannot fit any message (see the constructor).
    if (pos_ + owner.len + 10 + rdata.len > kOutSize) {
      truncated_ = true;
      return;
    }
    pos_ = compressor_.Write(owner, out, pos_);
    std::memcpy(out + pos_, set.fixed, sizeof(set.fixed));
    pos_ += sizeof(set.fixed);
    size_t rdlength_at = pos_;
    pos_ += 2;
    const uint8_t* bytes = zone.rdata_bytes_.data() + rdata.bytes;
    size_t done = 0;
    for (uint8_t k = 0; k < rdata.n_names; ++k) {
      std::memcpy(out + pos_, bytes + done, rdata.name_pos[k] - done);
      pos_ += rdata.name_pos[k] - done;
      const dns::WireNameView& name = zone.names_[rdata.name[k]];
      pos_ = compressor_.Write(name, out, pos_);
      done = rdata.name_pos[k] + name.len;
    }
    std::memcpy(out + pos_, bytes + done, rdata.len - done);
    pos_ += rdata.len - done;
    PutU16(out + rdlength_at, static_cast<uint16_t>(pos_ - rdlength_at - 2));
    if (pos_ > body_limit_) {
      // Encode drops the record that overflows and everything after it.
      truncated_ = true;
      pos_ = before;
      return;
    }
    ++counts_[section];
  }
}

}  // namespace ldp::zone
