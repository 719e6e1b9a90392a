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
// A zone must not change after ZoneSet::AddZone: the index is a snapshot.
#ifndef LDPLAYER_ZONE_COMPILED_H
#define LDPLAYER_ZONE_COMPILED_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "dns/types.h"
#include "dns/wire.h"
#include "zone/zone.h"

namespace ldp::zone {

class ZoneSet;

// Open-addressed map from a case-folded wire name to a 32-bit value,
// probed with the precomputed suffix hashes of a dns::WireNameView.
class WireNameTable {
 public:
  static constexpr uint32_t kMissing = UINT32_MAX;

  // Keys are unique; inserting a present key is the caller's bug.
  void Insert(const dns::WireNameView& name, uint32_t value);
  // The value stored for the suffix of `name` starting at label i.
  uint32_t Find(const dns::WireNameView& name, size_t i = 0) const;

 private:
  struct Slot {
    uint32_t hash = 0;  // low bits of the name's suffix hash
    uint32_t key = 0;   // offset of the folded key in keys_
    uint32_t value = kMissing;
    uint32_t len = 0;
  };
  void Grow();

  std::vector<Slot> slots_;
  Bytes keys_;
  size_t size_ = 0;
};

class CompiledZone {
 public:
  // Indexes `zone`, which must stay unchanged while this index is used.
  explicit CompiledZone(const Zone& zone);
  CompiledZone(const CompiledZone&) = delete;
  CompiledZone& operator=(const CompiledZone&) = delete;

  const dns::WireNameView& origin() const { return names_[origin_]; }

 private:
  friend class WireAnswerer;

  struct Rdata {
    uint32_t bytes = 0;  // offset in rdata_bytes_, uncompressed wire form
    uint32_t len = 0;
    uint8_t n_names = 0;        // compressible names inside (SOA has two)
    uint16_t name_pos[2] = {};  // their offsets inside the rdata
    uint32_t name[2] = {};      // their indices in names_
  };
  struct RRset {
    uint16_t type = 0;
    uint32_t owner = 0;       // index in names_
    uint8_t fixed[8] = {};    // TYPE, CLASS and TTL as written
    uint32_t rdata_begin = 0, rdata_end = 0;  // range of rdatas_
    uint32_t sigs = kNone;    // RRSIGs BuildResponse attaches to it
    uint32_t cname_target = kNone;  // first rdata's target, for CNAMEs
    uint32_t addr_begin = 0, addr_end = 0;  // range of addresses_
  };
  struct Node {
    uint32_t name = 0;     // index in names_
    bool exists = false;   // false: an empty non-terminal
    bool cut = false;      // NS below the apex
    uint32_t wildcard = kNone;  // node "*.<name>", when it exists
    uint32_t rrsets_begin = 0, rrsets_end = 0;  // node_rrsets_, type order
    uint32_t sigs_begin = 0, sigs_end = 0;      // sigs_by_type_
    // Referral, for cuts.
    uint32_t ns = kNone, ds = kNone;
    uint32_t glue_begin = 0, glue_end = 0;  // range of glue_
  };
  struct CoveredSigs {
    uint16_t type;
    uint32_t rrset;
  };
  static constexpr uint32_t kNone = UINT32_MAX;
  struct BuildState;

  dns::WireNameView View(uint32_t name) const;  // while building
  uint32_t InternName(const dns::Name& name);
  uint32_t InternWire(std::span<const uint8_t> wire);
  uint32_t AddRRset(const dns::RRset& rrset);

  // The RRset of `type` at node `node`, or kNone.
  uint32_t FindType(uint32_t node, uint16_t type) const;
  // The NSEC RRset at the greatest owner <= `name` in canonical order (the
  // one Zone::FindPredecessorWithType finds), or kNone.
  uint32_t CoveringNsec(const dns::WireNameView& name) const;
  // The RRSIGs at node `node` covering `type`, or kNone.
  uint32_t CoveringSigs(uint32_t node, uint16_t type) const;

  std::vector<dns::WireNameView> names_;
  Bytes name_bytes_;  // per name: wire, folded, offsets
  std::vector<uint64_t> name_hashes_;

  Bytes rdata_bytes_;
  std::vector<Rdata> rdatas_;
  std::vector<RRset> rrsets_;
  std::vector<Node> nodes_;
  std::vector<uint32_t> node_rrsets_;
  std::vector<CoveredSigs> sigs_by_type_;
  std::vector<uint32_t> addresses_;
  std::vector<uint32_t> glue_;
  WireNameTable node_table_;

  std::vector<uint32_t> nsec_rrsets_;  // NSEC RRsets, owners in canonical order
  uint32_t origin_ = 0;
  uint32_t soa_ = kNone;
  uint32_t wildcard_nsec_ = kNone;  // the NSEC covering "*.<origin>"
  BuildState* build_ = nullptr;  // set only inside the constructor
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

  // The qname, indexed.
  uint8_t qname_folded_[dns::kMaxNameWireLength];
  uint8_t qname_offsets_[dns::kMaxWireLabels];
  uint64_t qname_hashes_[dns::kMaxWireLabels];
  dns::WireNameView qname_;

  std::vector<uint32_t> answers_;  // RRsets in the answer section
  std::vector<const dns::WireNameView*> visited_;
  std::vector<uint32_t> added_addresses_;
};

}  // namespace ldp::zone

#endif  // LDPLAYER_ZONE_COMPILED_H
