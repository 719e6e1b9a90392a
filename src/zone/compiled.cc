#include "zone/compiled.h"

#include <algorithm>
#include <cstring>

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

size_t ExactBucket(uint64_t hash, size_t mask) {
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

void WireNameTable::Insert(std::span<Slot> slots, const dns::WireNameView& name,
                           uint32_t value) {
  Slot slot{Hash(name.hashes[0]), value};
  size_t at = Bucket(slot.hash, slots.size());
  while (slots[at].value != kMissing) {
    if (++at == slots.size()) at = 0;
  }
  slots[at] = slot;
}

void WireNameTable::Rehash(std::span<const Slot> from, std::span<Slot> to) {
  for (const Slot& slot : from) {
    if (slot.value == kMissing) continue;
    size_t at = Bucket(slot.hash, to.size());
    while (to[at].value != kMissing) {
      if (++at == to.size()) at = 0;
    }
    to[at] = slot;
  }
}

// --- CompiledZone ---

namespace {

// Offsets of arrays laid out back to back in one block, each at its
// type's alignment.
class BlockLayout {
 public:
  template <typename T>
  size_t Add(size_t count) {
    size_ = (size_ + alignof(T) - 1) / alignof(T) * alignof(T);
    size_t at = size_;
    size_ += count * sizeof(T);
    return at;
  }
  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

// Scratch a thread keeps for its next zone when it is no larger than this;
// the few zones that grow it further give it back.
constexpr size_t kKeepScratchBytes = 128 * 1024;

}  // namespace

// Build-time state: the index's arrays while they grow, name interning (an
// open-addressed table over the exact wire bytes) and each RRset's source
// and node. One per thread, cleared but not freed between zones, so
// compiling many small zones reuses the same scratch instead of leaving
// freed build temporaries between the blocks.
struct CompiledZone::Builder {
  static_assert(sizeof(NameLoc) == 12 && sizeof(Rdata) == 8 &&
                sizeof(RRset) == 24 && sizeof(Node) == 16);

  std::vector<NameLoc> names;
  Bytes name_bytes;
  std::vector<uint64_t> name_hashes;
  Bytes rdata_bytes;
  std::vector<Rdata> rdatas;
  std::vector<RRset> rrsets;
  std::vector<Node> nodes;
  std::vector<Link> links;
  std::vector<CoveredSigs> sigs_by_type;
  std::vector<uint32_t> addresses;
  std::vector<uint32_t> glue;
  std::vector<uint32_t> nsec_rrsets;
  std::vector<WireNameTable::Slot> node_slots;
  std::vector<WireNameTable::Slot> spare_slots;  // node_slots while it grows

  std::vector<uint64_t> exact_hashes;      // per name
  std::vector<uint32_t> intern_slots;      // name index + 1; 0 = empty
  std::vector<const dns::RRset*> sources;  // rrsets index -> zone RRset
  std::vector<uint32_t> rrset_node;        // rrsets index -> nodes index
  std::vector<uint16_t> covered;
  Bytes ent_wire;
  size_t data_nodes = 0;
  size_t data_rrsets = 0;

  void Build(const Zone& zone, CompiledZone& out);

  dns::WireNameView View(uint32_t name) const {
    return CompiledZone::View(names[name], name_bytes.data(),
                              name_hashes.data());
  }
  uint32_t InternWire(std::span<const uint8_t> wire);
  uint32_t InternName(const dns::Name& name) { return InternWire(name.wire()); }
  void AddRRset(const dns::RRset& rrset);
  void AddNode(uint32_t name, size_t rrsets_begin);
  uint32_t FindNode(const dns::WireNameView& name, size_t i = 0) const {
    return WireNameTable::Find(
        node_slots, name, i,
        [this](uint32_t node) { return View(nodes[node].name); });
  }
  uint32_t FindType(uint32_t node, uint16_t type) const;
  uint32_t CoveringSigs(uint32_t node, uint16_t type) const;
  uint32_t WildcardOf(uint32_t node) const {
    return nodes[node].link == kNone ? kNone : links[nodes[node].link].wildcard;
  }
  // The links entry of `node`, made when it has none.
  uint32_t LinkOf(uint32_t node);
  // Copies the arrays into `out`'s block.
  void Lay(CompiledZone& out) const;
  void Clear();
  size_t CapacityBytes() const;
};

uint32_t CompiledZone::Builder::InternWire(std::span<const uint8_t> wire) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (uint8_t byte : wire) hash = (hash ^ byte) * 0x100000001b3ull;
  if ((names.size() + 1) * 2 > intern_slots.size()) {
    intern_slots.assign(std::max<size_t>(64, intern_slots.size() * 2), 0);
    size_t mask = intern_slots.size() - 1;
    for (uint32_t name = 0; name < names.size(); ++name) {
      size_t at = ExactBucket(exact_hashes[name], mask);
      while (intern_slots[at] != 0) at = (at + 1) & mask;
      intern_slots[at] = name + 1;
    }
  }
  size_t mask = intern_slots.size() - 1;
  size_t at = ExactBucket(hash, mask);
  for (; intern_slots[at] != 0; at = (at + 1) & mask) {
    uint32_t name = intern_slots[at] - 1;
    const NameLoc& loc = names[name];
    if (exact_hashes[name] == hash && loc.len == wire.size() &&
        std::memcmp(name_bytes.data() + loc.bytes, wire.data(),
                    wire.size()) == 0) {
      return name;
    }
  }
  uint32_t name = static_cast<uint32_t>(names.size());
  intern_slots[at] = name + 1;

  uint8_t folded[dns::kMaxNameWireLength];
  uint8_t offsets[dns::kMaxWireLabels];
  uint64_t hashes[dns::kMaxWireLabels];
  size_t labels = dns::IndexWireName(wire, folded, offsets, hashes);
  NameLoc loc;
  loc.bytes = static_cast<uint32_t>(name_bytes.size());
  loc.hashes = static_cast<uint32_t>(name_hashes.size());
  loc.len = static_cast<uint8_t>(wire.size());
  loc.labels = static_cast<uint8_t>(labels);
  const bool has_upper = std::memcmp(folded, wire.data(), wire.size()) != 0;
  loc.folded = has_upper ? loc.len : 0;
  names.push_back(loc);
  exact_hashes.push_back(hash);
  name_bytes.insert(name_bytes.end(), wire.begin(), wire.end());
  if (has_upper) {
    name_bytes.insert(name_bytes.end(), folded, folded + wire.size());
  }
  name_bytes.insert(name_bytes.end(), offsets, offsets + labels + 1);
  name_hashes.insert(name_hashes.end(), hashes, hashes + labels + 1);
  return name;
}

void CompiledZone::Builder::AddRRset(const dns::RRset& rrset) {
  RRset out;
  out.owner = InternName(rrset.name);
  PutU16(out.fixed, static_cast<uint16_t>(rrset.type));
  PutU16(out.fixed + 2, static_cast<uint16_t>(rrset.klass));
  PutU16(out.fixed + 4, static_cast<uint16_t>(rrset.ttl >> 16));
  PutU16(out.fixed + 6, static_cast<uint16_t>(rrset.ttl & 0xffff));
  out.rdata_begin = static_cast<uint32_t>(rdatas.size());
  for (const dns::Rdata& rdata : rrset.rdatas) {
    Rdata info;
    info.bytes = static_cast<uint32_t>(rdata_bytes.size());
    // The names EncodeRdata compresses are written as plain wire here and
    // referenced after the rdata; every other byte is exactly what
    // EncodeRdata emits.
    uint16_t name_pos[2];
    uint32_t name_index[2];
    auto add_name = [&](const dns::Name& name) {
      name_pos[info.n_names] =
          static_cast<uint16_t>(rdata_bytes.size() - info.bytes);
      name_index[info.n_names] = InternName(name);
      ++info.n_names;
      std::span<const uint8_t> wire = name.wire();
      rdata_bytes.insert(rdata_bytes.end(), wire.begin(), wire.end());
    };
    if (const auto* ns = std::get_if<dns::NsRdata>(&rdata)) {
      add_name(ns->nsdname);
    } else if (const auto* cname = std::get_if<dns::CnameRdata>(&rdata)) {
      add_name(cname->target);
    } else if (const auto* ptr = std::get_if<dns::PtrRdata>(&rdata)) {
      add_name(ptr->target);
    } else if (const auto* mx = std::get_if<dns::MxRdata>(&rdata)) {
      rdata_bytes.push_back(static_cast<uint8_t>(mx->preference >> 8));
      rdata_bytes.push_back(static_cast<uint8_t>(mx->preference & 0xff));
      add_name(mx->exchange);
    } else if (const auto* soa = std::get_if<dns::SoaRdata>(&rdata)) {
      add_name(soa->mname);
      add_name(soa->rname);
      ByteWriter tail;
      for (uint32_t v : {soa->serial, soa->refresh, soa->retry, soa->expire,
                         soa->minimum}) {
        tail.WriteU32(v);
      }
      rdata_bytes.insert(rdata_bytes.end(), tail.data().begin(),
                         tail.data().end());
    } else {
      dns::NameCompressor unused;  // no other rdata compresses names
      ByteWriter writer;
      dns::EncodeRdata(rdata, unused, writer);
      rdata_bytes.insert(rdata_bytes.end(), writer.data().begin(),
                         writer.data().end());
    }
    info.len = static_cast<uint16_t>(
        std::min<size_t>(rdata_bytes.size() - info.bytes, 0xffff));
    for (uint8_t k = 0; k < info.n_names; ++k) {
      uint8_t ref[kNameRefSize];
      std::memcpy(ref, &name_pos[k], 2);
      std::memcpy(ref + 2, &name_index[k], 4);
      rdata_bytes.insert(rdata_bytes.end(), ref, ref + kNameRefSize);
    }
    rdatas.push_back(info);
  }
  rrsets.push_back(out);
}

void CompiledZone::Builder::AddNode(uint32_t name, size_t rrsets_begin) {
  Node node;
  node.name = name;
  node.rrsets_begin = static_cast<uint32_t>(rrsets_begin);
  node.sigs_begin = static_cast<uint32_t>(sigs_by_type.size());
  nodes.push_back(node);
  if (node_slots.size() < WireNameTable::SlotCount(nodes.size())) {
    spare_slots.assign(WireNameTable::SlotCount(2 * nodes.size()),
                       WireNameTable::Slot{});
    WireNameTable::Rehash(node_slots, spare_slots);
    node_slots.swap(spare_slots);
  }
  WireNameTable::Insert(node_slots, View(name),
                        static_cast<uint32_t>(nodes.size() - 1));
}

uint32_t CompiledZone::Builder::FindType(uint32_t node, uint16_t type) const {
  size_t end =
      node + 1 < nodes.size() ? nodes[node + 1].rrsets_begin : data_rrsets;
  for (uint32_t i = nodes[node].rrsets_begin; i < end; ++i) {
    if (rrsets[i].type() == type) return i;
  }
  return kNone;
}

uint32_t CompiledZone::Builder::CoveringSigs(uint32_t node,
                                             uint16_t type) const {
  size_t end = node + 1 < nodes.size() ? nodes[node + 1].sigs_begin
                                       : sigs_by_type.size();
  for (uint32_t i = nodes[node].sigs_begin; i < end; ++i) {
    if (sigs_by_type[i].type == type) return sigs_by_type[i].rrset;
  }
  return kNone;
}

uint32_t CompiledZone::Builder::LinkOf(uint32_t node) {
  if (nodes[node].link == kNone) {
    nodes[node].link = static_cast<uint32_t>(links.size());
    links.emplace_back();
  }
  return nodes[node].link;
}

void CompiledZone::Builder::Build(const Zone& zone, CompiledZone& out) {
  Clear();
  const uint32_t origin = InternName(zone.origin());

  // 1. Nodes with data, in canonical order, each with its RRsets in type
  // order (ForEachRRset visits node by node).
  const dns::Name* last_owner = nullptr;
  zone.ForEachRRset([&](const dns::RRset& rrset) {
    if (last_owner == nullptr || !(*last_owner == rrset.name)) {
      AddNode(InternName(rrset.name), rrsets.size());
      last_owner = &rrset.name;
    }
    sources.push_back(&rrset);
    rrset_node.push_back(static_cast<uint32_t>(nodes.size() - 1));
    AddRRset(rrset);
  });
  data_nodes = nodes.size();
  data_rrsets = rrsets.size();
  const size_t origin_labels = View(origin).labels;

  // 2. RRSIG sets split by covered type, in rdata order (what
  // RrsigsCovering returns).
  for (uint32_t node = 0; node < data_nodes; ++node) {
    nodes[node].sigs_begin = static_cast<uint32_t>(sigs_by_type.size());
    uint32_t all = FindType(node, kTypeRrsig);
    if (all == kNone) continue;
    const dns::RRset* source = sources[all];
    covered.clear();
    for (const dns::Rdata& rdata : source->rdatas) {
      const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
      if (sig == nullptr) continue;
      uint16_t type = static_cast<uint16_t>(sig->type_covered);
      if (std::find(covered.begin(), covered.end(), type) == covered.end()) {
        covered.push_back(type);
      }
    }
    for (uint16_t type : covered) {
      RRset split = rrsets[all];
      split.rdata_begin = static_cast<uint32_t>(rdatas.size());
      for (uint32_t i = 0; i < source->rdatas.size(); ++i) {
        const auto* sig = std::get_if<dns::RrsigRdata>(&source->rdatas[i]);
        if (sig != nullptr &&
            static_cast<uint16_t>(sig->type_covered) == type) {
          Rdata copy = rdatas[rrsets[all].rdata_begin + i];
          rdatas.push_back(copy);
        }
      }
      rrsets.push_back(split);
      sigs_by_type.push_back(
          CoveredSigs{type, static_cast<uint32_t>(rrsets.size() - 1)});
    }
  }

  // 3. Empty non-terminals: every missing ancestor of a data node, down to
  // the origin.
  for (uint32_t node = 0; node < data_nodes; ++node) {
    const size_t labels = View(nodes[node].name).labels;
    for (size_t i = 1; i + origin_labels <= labels; ++i) {
      dns::WireNameView name = View(nodes[node].name);  // may have moved
      if (FindNode(name, i) != kNone) break;
      ent_wire.assign(name.wire + name.offsets[i], name.wire + name.len);
      AddNode(InternWire(ent_wire), data_rrsets);
    }
  }

  // 4. Wildcards: link "*.<x>" from x.
  for (uint32_t node = 0; node < data_nodes; ++node) {
    dns::WireNameView name = View(nodes[node].name);
    if (name.labels <= origin_labels || name.wire[0] != 1 ||
        name.wire[1] != '*') {
      continue;
    }
    uint32_t parent = FindNode(name, 1);
    if (parent != kNone) links[LinkOf(parent)].wildcard = node;
  }

  // 5. Per RRset: the signatures BuildResponse attaches (at the owner,
  // else at the owner's wildcard sibling, "*.<parent>") and the addresses
  // additional-section processing adds for its targets. Per cut: the
  // referral.
  auto data_node = [&](uint32_t name) {
    uint32_t node = FindNode(View(name));
    return node < data_nodes ? node : kNone;
  };
  auto addresses_of = [&](const dns::Name& target,
                          std::vector<uint32_t>& into) {
    uint32_t node = data_node(InternName(target));
    if (node == kNone) return;
    for (uint16_t type : {kTypeA, kTypeAaaa}) {
      uint32_t rrset = FindType(node, type);
      if (rrset != kNone) into.push_back(rrset);
    }
  };
  for (uint32_t index = 0; index < data_rrsets; ++index) {
    RRset& rrset = rrsets[index];
    if (rrset.type() != kTypeRrsig) {
      rrset.sigs = CoveringSigs(rrset_node[index], rrset.type());
      dns::WireNameView owner = View(rrset.owner);
      uint32_t parent = owner.labels > 0 ? FindNode(owner, 1) : kNone;
      uint32_t sibling = parent == kNone ? kNone : WildcardOf(parent);
      if (rrset.sigs == kNone && sibling != kNone) {
        rrset.sigs = CoveringSigs(sibling, rrset.type());
      }
    }
    rrset.addr_begin = static_cast<uint32_t>(addresses.size());
    for (const dns::Rdata& rdata : sources[index]->rdatas) {
      if (const dns::Name* target = AdditionalTarget(rdata)) {
        addresses_of(*target, addresses);
      }
    }
  }
  for (size_t index = data_rrsets; index < rrsets.size(); ++index) {
    rrsets[index].addr_begin = static_cast<uint32_t>(addresses.size());
  }
  const uint32_t apex = data_node(origin);
  for (uint32_t node = 0; node < data_nodes; ++node) {
    uint32_t ns = FindType(node, kTypeNs);
    if (ns == kNone || node == apex) continue;
    uint32_t link = LinkOf(node);
    links[link].ns = ns;
    links[link].ds = FindType(node, kTypeDs);
    links[link].glue_begin = static_cast<uint32_t>(glue.size());
    for (const dns::Rdata& rdata : sources[ns]->rdatas) {
      const auto* target = std::get_if<dns::NsRdata>(&rdata);
      if (target != nullptr && target->nsdname.IsSubdomainOf(zone.origin())) {
        addresses_of(target->nsdname, glue);
      }
    }
    links[link].glue_end = static_cast<uint32_t>(glue.size());
  }

  // 6. Negative answers: the SOA and the NSEC chain in canonical order.
  out.soa_ = apex != kNone ? FindType(apex, kTypeSoa) : kNone;
  for (uint32_t node = 0; node < data_nodes; ++node) {
    uint32_t nsec = FindType(node, kTypeNsec);
    if (nsec != kNone) nsec_rrsets.push_back(nsec);
  }

  // The ends of the last ranges.
  RRset rrsets_end;
  rrsets_end.rdata_begin = static_cast<uint32_t>(rdatas.size());
  rrsets_end.addr_begin = static_cast<uint32_t>(addresses.size());
  rrsets.push_back(rrsets_end);
  Node nodes_end;
  nodes_end.rrsets_begin = static_cast<uint32_t>(data_rrsets);
  nodes_end.sigs_begin = static_cast<uint32_t>(sigs_by_type.size());
  nodes.push_back(nodes_end);

  out.origin_ = origin;
  out.data_nodes_ = static_cast<uint32_t>(data_nodes);
  Lay(out);

  // The NSEC covering "*.<origin>", found once.
  dns::WireNameView origin_name = out.origin();
  if (size_t{origin_name.len} + 2 <= dns::kMaxNameWireLength) {
    uint8_t wildcard[dns::kMaxNameWireLength] = {1, '*'};
    std::memcpy(wildcard + 2, origin_name.wire, origin_name.len);
    const dns::IndexedWireName name(
        std::span<const uint8_t>(wildcard, origin_name.len + 2));
    out.wildcard_nsec_ = out.CoveringNsec(name.view());
  }

  if (CapacityBytes() > kKeepScratchBytes) *this = Builder();
}

void CompiledZone::Builder::Lay(CompiledZone& out) const {
  BlockLayout layout;
  const size_t at_hashes = layout.Add<uint64_t>(name_hashes.size());
  const size_t at_names = layout.Add<NameLoc>(names.size());
  const size_t at_rdatas = layout.Add<Rdata>(rdatas.size());
  const size_t at_rrsets = layout.Add<RRset>(rrsets.size());
  const size_t at_nodes = layout.Add<Node>(nodes.size());
  const size_t at_links = layout.Add<Link>(links.size());
  const size_t at_sigs = layout.Add<CoveredSigs>(sigs_by_type.size());
  const size_t at_addresses = layout.Add<uint32_t>(addresses.size());
  const size_t at_glue = layout.Add<uint32_t>(glue.size());
  const size_t at_nsec = layout.Add<uint32_t>(nsec_rrsets.size());
  const size_t n_slots = WireNameTable::SlotCount(nodes.size() - 1);
  const size_t at_slots = layout.Add<WireNameTable::Slot>(n_slots);
  const size_t at_name_bytes = layout.Add<uint8_t>(name_bytes.size());
  const size_t at_rdata_bytes = layout.Add<uint8_t>(rdata_bytes.size());

  out.block_size_ = layout.size();
  out.block_.reset(new std::byte[out.block_size_]);
  std::byte* block = out.block_.get();
  auto place = [block]<typename T>(const std::vector<T>& from, size_t at) {
    if (!from.empty()) {
      std::memcpy(block + at, from.data(), from.size() * sizeof(T));
    }
    return reinterpret_cast<const T*>(block + at);
  };
  out.name_hashes_ = place(name_hashes, at_hashes);
  out.names_ = place(names, at_names);
  out.rdatas_ = place(rdatas, at_rdatas);
  out.rrsets_ = place(rrsets, at_rrsets);
  out.nodes_ = place(nodes, at_nodes);
  out.links_ = place(links, at_links);
  out.sigs_by_type_ = place(sigs_by_type, at_sigs);
  out.addresses_ = place(addresses, at_addresses);
  out.glue_ = place(glue, at_glue);
  out.nsec_rrsets_ = {place(nsec_rrsets, at_nsec), nsec_rrsets.size()};
  out.name_bytes_ = place(name_bytes, at_name_bytes);
  out.rdata_bytes_ = place(rdata_bytes, at_rdata_bytes);
  auto* slots = reinterpret_cast<WireNameTable::Slot*>(block + at_slots);
  std::uninitialized_fill_n(slots, n_slots, WireNameTable::Slot{});
  WireNameTable::Rehash(node_slots, {slots, n_slots});
  out.node_slots_ = {slots, n_slots};
}

void CompiledZone::Builder::Clear() {
  names.clear();
  name_bytes.clear();
  name_hashes.clear();
  rdata_bytes.clear();
  rdatas.clear();
  rrsets.clear();
  nodes.clear();
  links.clear();
  sigs_by_type.clear();
  addresses.clear();
  glue.clear();
  nsec_rrsets.clear();
  node_slots.clear();
  spare_slots.clear();
  exact_hashes.clear();
  intern_slots.clear();
  sources.clear();
  rrset_node.clear();
}

size_t CompiledZone::Builder::CapacityBytes() const {
  auto bytes = []<typename T>(const std::vector<T>& v) {
    return v.capacity() * sizeof(T);
  };
  return bytes(names) + bytes(name_bytes) + bytes(name_hashes) +
         bytes(rdata_bytes) + bytes(rdatas) + bytes(rrsets) + bytes(nodes) +
         bytes(links) + bytes(sigs_by_type) + bytes(addresses) + bytes(glue) +
         bytes(nsec_rrsets) + bytes(node_slots) + bytes(spare_slots) +
         bytes(exact_hashes) + bytes(intern_slots) + bytes(sources) +
         bytes(rrset_node) + bytes(covered) + bytes(ent_wire);
}

uint32_t CompiledZone::FindType(uint32_t node, uint16_t type) const {
  const uint32_t end = nodes_[node + 1].rrsets_begin;
  for (uint32_t i = nodes_[node].rrsets_begin; i < end; ++i) {
    if (rrsets_[i].type() == type) return i;
  }
  return kNone;
}

uint32_t CompiledZone::CoveringNsec(const dns::WireNameView& name) const {
  auto it = std::upper_bound(
      nsec_rrsets_.begin(), nsec_rrsets_.end(), name,
      [&](const dns::WireNameView& key, uint32_t rrset) {
        return dns::CanonicalCompare(key, OwnerOf(rrset)) < 0;
      });
  return it == nsec_rrsets_.begin() ? kNone : *(it - 1);
}

uint32_t CompiledZone::CoveringSigs(uint32_t node, uint16_t type) const {
  const uint32_t end = nodes_[node + 1].sigs_begin;
  for (uint32_t i = nodes_[node].sigs_begin; i < end; ++i) {
    if (sigs_by_type_[i].type == type) return sigs_by_type_[i].rrset;
  }
  return kNone;
}

uint32_t CompiledZone::CnameTarget(uint32_t rrset) const {
  uint32_t first = rrsets_[rrset].rdata_begin;
  if (first == rrsets_[rrset + 1].rdata_begin) return kNone;
  const Rdata& rdata = rdatas_[first];
  if (rdata.n_names == 0) return kNone;
  uint32_t name;
  std::memcpy(&name, rdata_bytes_ + rdata.bytes + rdata.len + 2, 4);
  return name;
}

CompiledZone::CompiledZone(const Zone& zone) {
  thread_local Builder builder;
  builder.Build(zone, *this);
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
  const dns::WireNameView& qname = qname_.Index(query.qname);
  const CompiledZone* zone = zones.FindBestCompiled(qname);

  compressor_.Reset();
  answers_.clear();
  visited_.clear();
  added_addresses_.clear();
  counts_[kAnswer] = counts_[kAuthority] = counts_[kAdditional] = 0;
  truncated_ = false;
  uint8_t* out = out_.get();
  pos_ = compressor_.Write(qname, out, 12);
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
  constexpr uint32_t kNone = CompiledZone::kNone;
  const dns::WireNameView& qname = qname_.view();
  const dns::WireNameView origin = zone.origin();

  // 1. Referral: the highest cut on the path from the apex to qname. A
  // missing name ends the walk, since nothing exists below it.
  for (size_t i = qname.labels - origin.labels; i-- > 0;) {
    uint32_t node = zone.FindNode(qname, i);
    if (node == kNone) break;
    if (!zone.IsCut(node)) continue;
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
    uint16_t type = zone.rrsets_[rrset].type();
    if (!dnssec || type == kTypeRrsig) return kNone;
    uint32_t parent = zone.FindNode(owner, 1);
    if (parent == kNone) return kNone;
    uint32_t sibling = zone.WildcardOf(parent);
    return sibling == kNone ? kNone : zone.CoveringSigs(sibling, type);
  };
  auto answer = [&](uint32_t rrset, const dns::WireNameView& owner,
                    uint32_t sigs) {
    answers_.push_back(rrset);
    Emit(zone, rrset, owner, kAnswer, sigs);
  };
  // Follows a CNAME answer; false when the chain leaves the zone.
  dns::WireNameView current = qname;
  auto follow = [&](uint32_t cname) {
    uint32_t target = zone.CnameTarget(cname);
    if (target == kNone) return false;
    dns::WireNameView name = zone.NameAt(target);
    if (!name.IsSubdomainOf(origin)) return false;
    current = name;
    return true;
  };

  while (true) {
    bool seen = false;
    for (const dns::WireNameView& name : visited_) {
      if (name.Equals(current)) seen = true;
    }
    if (seen) break;  // CNAME loop: stop chasing
    visited_.push_back(current);
    const dns::WireNameView name = current;

    uint32_t node = zone.FindNode(name);
    if (node == kNone || !zone.Exists(node)) {
      if (node != kNone) {  // empty non-terminal
        outcome = Outcome::kNoData;
        break;
      }
      // The closest encloser's wildcard, if it has one.
      uint32_t source = kNone;
      for (size_t i = 1; i + origin.labels <= name.labels; ++i) {
        uint32_t encloser = zone.FindNode(name, i);
        if (encloser == kNone) continue;
        source = zone.WildcardOf(encloser);
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

    uint32_t cname = zone.FindType(node, kTypeCname);
    if (cname != kNone && qtype != kTypeCname && qtype != kTypeAny) {
      answer(cname, zone.OwnerOf(cname), sigs_of(cname));
      chased = true;
      if (follow(cname)) continue;
      outcome = Outcome::kCname;
      negative = false;
      break;
    }
    if (qtype == kTypeAny) {
      for (uint32_t rrset = zone.nodes_[node].rrsets_begin;
           rrset < zone.nodes_[node + 1].rrsets_begin; ++rrset) {
        answer(rrset, zone.OwnerOf(rrset), sigs_of(rrset));
      }
      outcome = Outcome::kAnswer;
      negative = false;
      break;
    }
    uint32_t match = zone.FindType(node, qtype);
    if (match != kNone) {
      answer(match, zone.OwnerOf(match), sigs_of(match));
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
    Emit(zone, zone.soa_, zone.OwnerOf(zone.soa_), kAuthority,
         sigs_of(zone.soa_));
  }
  if (dnssec && (outcome == Outcome::kNxDomain ||
                 outcome == Outcome::kNoData || wildcard)) {
    uint32_t nsec = zone.CoveringNsec(qname);
    if (nsec != kNone) {
      Emit(zone, nsec, zone.OwnerOf(nsec), kAuthority,
           zone.rrsets_[nsec].sigs);
    }
    uint32_t wc_nsec = zone.wildcard_nsec_;
    // One NSEC RRset per node, so distinct RRsets have distinct owners.
    if (outcome == Outcome::kNxDomain && nsec != kNone && wc_nsec != kNone &&
        wc_nsec != nsec) {
      Emit(zone, wc_nsec, zone.OwnerOf(wc_nsec), kAuthority,
           zone.rrsets_[wc_nsec].sigs);
    }
  }

  // Additional: addresses of NS/MX/SRV targets named in the answer.
  for (uint32_t answer_rrset : answers_) {
    for (uint32_t i = zone.rrsets_[answer_rrset].addr_begin;
         i < zone.rrsets_[answer_rrset + 1].addr_begin; ++i) {
      uint32_t address = zone.addresses_[i];
      if (std::find(added_addresses_.begin(), added_addresses_.end(),
                    address) != added_addresses_.end()) {
        continue;
      }
      added_addresses_.push_back(address);
      Emit(zone, address, zone.OwnerOf(address), kAdditional,
           sigs_of(address));
    }
  }
}

void WireAnswerer::Referral(const CompiledZone& zone, uint32_t cut,
                            bool dnssec) {
  const CompiledZone::Link& link = zone.links_[zone.nodes_[cut].link];
  const auto* rrsets = zone.rrsets_;
  aa_ = false;
  // The cut's NS set is unsigned (it belongs to the child); DS and glue
  // carry their signatures.
  Emit(zone, link.ns, zone.OwnerOf(link.ns), kAuthority);
  if (link.ds != CompiledZone::kNone) {
    Emit(zone, link.ds, zone.OwnerOf(link.ds), kAuthority,
         dnssec ? rrsets[link.ds].sigs : CompiledZone::kNone);
  }
  for (uint32_t i = link.glue_begin; i < link.glue_end; ++i) {
    uint32_t glue = zone.glue_[i];
    Emit(zone, glue, zone.OwnerOf(glue), kAdditional,
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
  const CompiledZone::RRset& set = zone.rrsets_[rrset];
  const uint32_t end = zone.rrsets_[rrset + 1].rdata_begin;
  uint8_t* out = out_.get();
  for (uint32_t r = set.rdata_begin; r < end; ++r) {
    if (truncated_) return;
    const CompiledZone::Rdata& rdata = zone.rdatas_[r];
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
    const uint8_t* bytes = zone.rdata_bytes_ + rdata.bytes;
    size_t done = 0;
    if (rdata.n_names != 0) {
      const uint8_t* ref = bytes + rdata.len;
      for (uint8_t k = 0; k < rdata.n_names;
           ++k, ref += CompiledZone::kNameRefSize) {
        uint16_t name_pos;
        uint32_t name_index;
        std::memcpy(&name_pos, ref, 2);
        std::memcpy(&name_index, ref + 2, 4);
        std::memcpy(out + pos_, bytes + done, name_pos - done);
        pos_ += name_pos - done;
        const dns::WireNameView name = zone.NameAt(name_index);
        pos_ = compressor_.Write(name, out, pos_);
        done = name_pos + name.len;
      }
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
