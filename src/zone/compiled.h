// Compiled zones: a read-only index built once per zone when a ZoneSet
// accepts it, from which the engine answers plain queries by copying
// pre-encoded wire bytes (DESIGN.md §16). No dns::Message, Name or RRset
// is built per query; zone::Lookup and zone::BuildResponse (lookup.h)
// remain the reference the compiled answers must match byte for byte.
//
// The index holds, per zone:
//   - a hash of every owner name (and every empty non-terminal), keyed on
//     the lowercased wire form;
//   - every RRset as wire bytes, with the names NameCompressor compresses
//     (owner; NS, CNAME, PTR, MX and SOA rdata names) marked so they are
//     written through a WireCompressor;
//   - each RRSIG set split by covered type, and for every RRset the split
//     that BuildResponse would attach to it;
//   - per zone cut, the referral (NS, DS and glue RRsets);
//   - per NS/MX/SRV RRset, the in-zone A/AAAA RRsets of its targets;
//   - the NSEC owners in canonical order, searched for the covering NSEC.
//
// All of it lives in one allocation of exactly its size: the arrays are
// built in scratch vectors reused from zone to zone, then laid out back to
// back. A zone must not change after ZoneSet::AddZone: the index is a
// snapshot.
#ifndef LDPLAYER_ZONE_COMPILED_H
#define LDPLAYER_ZONE_COMPILED_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "dns/types.h"
#include "dns/wire.h"
#include "zone/zone.h"

namespace ldp::zone {

class ZoneSet;

// Open-addressed map from a case-folded wire name to a 32-bit value, over
// slots its owner holds. A slot keeps the value and a 32-bit hash, not the
// name: the owner's key_of(value) gives back the name the value was stored
// under, so the table holds no copy of its keys. At most half the slots
// are used, so every probe ends at an empty one.
class WireNameTable {
 public:
  static constexpr uint32_t kMissing = UINT32_MAX;
  struct Slot {
    uint32_t hash = 0;
    uint32_t value = kMissing;
  };

  // The slots that hold `keys` keys.
  static size_t SlotCount(size_t keys) { return 2 * keys + 1; }
  // Stores `value` under `name`, which `slots` does not hold; `slots` must
  // have room (SlotCount).
  static void Insert(std::span<Slot> slots, const dns::WireNameView& name,
                     uint32_t value);
  // Moves every value of `from` into `to`, which is empty and has room.
  static void Rehash(std::span<const Slot> from, std::span<Slot> to);
  // The value stored for the suffix of `name` starting at label i, or
  // kMissing. key_of(value) returns the dns::WireNameView it was stored
  // under.
  template <typename KeyOf>
  static uint32_t Find(std::span<const Slot> slots,
                       const dns::WireNameView& name, size_t i,
                       const KeyOf& key_of) {
    if (slots.empty()) return kMissing;
    const uint32_t hash = Hash(name.hashes[i]);
    const size_t len = name.SuffixLength(i);
    const uint8_t* folded = name.SuffixFolded(i);
    for (size_t at = Bucket(hash, slots.size());;) {
      const Slot& slot = slots[at];
      if (slot.value == kMissing) return kMissing;
      if (slot.hash == hash) {
        const dns::WireNameView key = key_of(slot.value);
        if (key.len == len && std::memcmp(key.folded, folded, len) == 0) {
          return slot.value;
        }
      }
      if (++at == slots.size()) at = 0;
    }
  }

 private:
  // The suffix hashes differ mostly in their low bits (FNV-1a's last
  // multiply), and Bucket uses the high ones: multiply by 2^64 / phi to
  // carry every bit up.
  static uint32_t Hash(uint64_t suffix_hash) {
    return static_cast<uint32_t>((suffix_hash * 0x9e3779b97f4a7c15ull) >> 32);
  }
  // Maps the hash onto [0, n) without a power-of-two size.
  static size_t Bucket(uint32_t hash, size_t n) {
    return static_cast<size_t>((static_cast<uint64_t>(hash) * n) >> 32);
  }
};

class CompiledZone {
 public:
  // Indexes `zone`, which must stay unchanged while this index is used.
  explicit CompiledZone(const Zone& zone);
  CompiledZone(const CompiledZone&) = delete;
  CompiledZone& operator=(const CompiledZone&) = delete;

  dns::WireNameView origin() const { return NameAt(origin_); }

  // The bytes this index holds, exactly: the object and its one block.
  size_t MemoryFootprint() const { return sizeof(*this) + block_size_; }

 private:
  friend class WireAnswerer;
  struct Builder;

  // No such entry; also what FindNode returns for a missing name.
  static constexpr uint32_t kNone = WireNameTable::kMissing;

  // Where a name lives: `bytes` in name_bytes_ holds its wire form, then
  // its folded form (unless the wire has no upper case and is its own),
  // then its labels + 1 offsets; `hashes` in name_hashes_ its labels + 1
  // suffix hashes.
  struct NameLoc {
    uint32_t bytes = 0;
    uint32_t hashes = 0;
    uint8_t len = 0;
    uint8_t labels = 0;
    uint8_t folded = 0;  // where the folded form starts: 0 (the wire) or len
  };
  // One record's rdata: `len` bytes of uncompressed wire form at `bytes` in
  // rdata_bytes_, followed there by the n_names names a compressor writes
  // (SOA has two), kNameRefSize bytes each: the name's offset inside the
  // rdata (16 bits), then its index in names_ (32 bits). A record of more
  // than 65535 octets fits no message, so its length saturates.
  struct Rdata {
    uint32_t bytes = 0;
    uint16_t len = 0;
    uint8_t n_names = 0;
  };
  static constexpr size_t kNameRefSize = 6;
  struct RRset {
    uint32_t owner = 0;        // index in names_
    uint32_t rdata_begin = 0;  // its rdatas_ run to the next RRset's
    uint32_t addr_begin = 0;   // its addresses_ run to the next RRset's
    uint32_t sigs = kNone;     // RRSIGs BuildResponse attaches to it
    uint8_t fixed[8] = {};     // TYPE, CLASS and TTL as written

    uint16_t type() const {
      return static_cast<uint16_t>((fixed[0] << 8) | fixed[1]);
    }
  };
  // Nodes from data_nodes_ on are empty non-terminals.
  struct Node {
    uint32_t name = 0;          // index in names_
    uint32_t rrsets_begin = 0;  // its RRsets, in type order, run to the
                                // next node's
    uint32_t sigs_begin = 0;    // its sigs_by_type_ run to the next node's
    uint32_t link = kNone;      // its entry in links_, if it has one
  };
  // What only some nodes have: cuts a referral, wildcard parents the link.
  struct Link {
    uint32_t wildcard = kNone;  // node "*.<name>", when it exists
    uint32_t ns = kNone;        // a cut's NS RRset; kNone: not a cut
    uint32_t ds = kNone;
    uint32_t glue_begin = 0, glue_end = 0;  // range of glue_
  };
  struct CoveredSigs {
    uint16_t type;
    uint32_t rrset;
  };

  static dns::WireNameView View(const NameLoc& loc, const uint8_t* name_bytes,
                                const uint64_t* name_hashes) {
    dns::WireNameView view;
    view.wire = name_bytes + loc.bytes;
    view.folded = view.wire + loc.folded;
    view.offsets = view.folded + loc.len;
    view.hashes = name_hashes + loc.hashes;
    view.len = loc.len;
    view.labels = loc.labels;
    return view;
  }
  dns::WireNameView NameAt(uint32_t name) const {
    return View(names_[name], name_bytes_, name_hashes_);
  }
  dns::WireNameView OwnerOf(uint32_t rrset) const {
    return NameAt(rrsets_[rrset].owner);
  }
  // The node of the suffix of `name` starting at label i, or kNone.
  uint32_t FindNode(const dns::WireNameView& name, size_t i = 0) const {
    return WireNameTable::Find(
        node_slots_, name, i,
        [this](uint32_t node) { return NameAt(nodes_[node].name); });
  }
  bool Exists(uint32_t node) const { return node < data_nodes_; }
  bool IsCut(uint32_t node) const {
    return nodes_[node].link != kNone && links_[nodes_[node].link].ns != kNone;
  }
  // The node "*.<name of node>", or kNone.
  uint32_t WildcardOf(uint32_t node) const {
    return nodes_[node].link == kNone ? kNone
                                      : links_[nodes_[node].link].wildcard;
  }
  // The RRset of `type` at node `node`, or kNone.
  uint32_t FindType(uint32_t node, uint16_t type) const;
  // The NSEC RRset at the greatest owner <= `name` in canonical order (the
  // one Zone::FindPredecessorWithType finds), or kNone.
  uint32_t CoveringNsec(const dns::WireNameView& name) const;
  // The RRSIGs at node `node` covering `type`, or kNone.
  uint32_t CoveringSigs(uint32_t node, uint16_t type) const;
  // A CNAME RRset's target: its first rdata's name, or kNone.
  uint32_t CnameTarget(uint32_t rrset) const;

  // The block: every array below points into it.
  std::unique_ptr<std::byte[]> block_;
  size_t block_size_ = 0;
  const NameLoc* names_ = nullptr;
  const uint8_t* name_bytes_ = nullptr;
  const uint64_t* name_hashes_ = nullptr;
  const uint8_t* rdata_bytes_ = nullptr;
  const Rdata* rdatas_ = nullptr;
  const RRset* rrsets_ = nullptr;  // one past the last: the range ends
  const Node* nodes_ = nullptr;    // likewise
  const Link* links_ = nullptr;
  const CoveredSigs* sigs_by_type_ = nullptr;
  const uint32_t* addresses_ = nullptr;
  const uint32_t* glue_ = nullptr;
  std::span<const WireNameTable::Slot> node_slots_;  // name -> node
  std::span<const uint32_t> nsec_rrsets_;  // owners in canonical order

  uint32_t data_nodes_ = 0;
  uint32_t origin_ = 0;
  uint32_t soa_ = kNone;
  uint32_t wildcard_nsec_ = kNone;  // the NSEC covering "*.<origin>"
};

// Per-engine working memory for compiled answers. Not thread-safe: each
// engine (one per server shard) owns one.
class WireAnswerer {
 public:
  struct Answer {
    std::span<const uint8_t> wire;  // valid until the next call
    dns::Rcode rcode = dns::Rcode::kNoError;
    bool truncated = false;
  };

  WireAnswerer();

  // The response BuildResponse(...).Encode(limit) gives for `query`, a
  // plain query (dns::ParseWireQuery), answered from the deepest zone of
  // `zones` holding its name — or REFUSED when none does, as the engine
  // answers a name it has no zone for.
  Answer Respond(const ZoneSet& zones, const dns::WireQueryInfo& query,
                 size_t limit);

 private:
  enum Section { kAnswer = 0, kAuthority = 1, kAdditional = 2 };

  void AnswerFromZone(const CompiledZone& zone, uint16_t qtype, bool dnssec);
  void Referral(const CompiledZone& zone, uint32_t cut, bool dnssec);
  // Writes an RRset's records, then (when `sigs` names one) its RRSIGs,
  // all under `owner`, stopping for good at the first record that does
  // not fit.
  void Emit(const CompiledZone& zone, uint32_t rrset,
            const dns::WireNameView& owner, Section section,
            uint32_t sigs = CompiledZone::kNone);
  void EmitRecords(const CompiledZone& zone, uint32_t rrset,
                   const dns::WireNameView& owner, Section section);

  std::unique_ptr<uint8_t[]> out_;  // kOutSize bytes, never zero-filled
  size_t pos_ = 0;
  size_t body_limit_ = 0;
  bool truncated_ = false;
  uint16_t counts_[3] = {};
  bool aa_ = false;
  dns::Rcode rcode_ = dns::Rcode::kNoError;
  dns::WireCompressor compressor_;

  dns::IndexedWireName qname_;

  std::vector<uint32_t> answers_;  // RRsets in the answer section
  std::vector<dns::WireNameView> visited_;
  std::vector<uint32_t> added_addresses_;
};

}  // namespace ldp::zone

#endif  // LDPLAYER_ZONE_COMPILED_H
