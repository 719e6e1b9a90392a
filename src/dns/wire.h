// Wire-format helpers shared by the engine (its response-cache keys and its
// compiled answer path, zone/compiled.h) and the replay querier: reading a
// plain query straight off the wire, case-folded names with per-suffix
// hashes, and a compression dictionary that writes names exactly as
// NameCompressor does, without building a Name.
#ifndef LDPLAYER_DNS_WIRE_H
#define LDPLAYER_DNS_WIRE_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "dns/name.h"

namespace ldp::dns {

// The fields of a plain single-question query, read directly from the wire
// (no dns::Message).
struct WireQueryInfo {
  uint16_t id = 0;
  bool rd = false;
  uint16_t qtype = 0;
  bool has_edns = false;
  bool do_bit = false;
  uint32_t advertised = 0;  // raw EDNS payload size (0 without EDNS)
  std::span<const uint8_t> question;  // raw question section bytes
  std::span<const uint8_t> qname;     // the question's name, uncompressed
};

// Parses a plain query: QR clear, opcode QUERY, exactly one question, no
// answer/authority records, at most one additional that must be a
// well-formed OPT (version 0), no compression, no trailing bytes. Returns
// false for anything else — those queries take the full decode path.
bool ParseWireQuery(std::span<const uint8_t> wire, WireQueryInfo* out);

// True when `reply` carries at least one question and its first question
// equals the first question of `query` (qname compared case-insensitively,
// qtype and qclass exactly). Both must be well-formed up to that question;
// a compressed reply qname is followed through its pointers.
bool SameFirstQuestion(std::span<const uint8_t> reply,
                       std::span<const uint8_t> query);

constexpr size_t kMaxWireLabels = 128;  // 255-octet names hold <= 127 labels

// An uncompressed wire name prepared for hash lookups and compression. The
// arrays are owned elsewhere (an index, or a caller's scratch buffer).
//   offsets[i]: where label i starts; offsets[labels] = len - 1 (the root)
//   hashes[i]:  hash of the folded suffix that starts at label i
struct WireNameView {
  const uint8_t* wire = nullptr;    // as written (original case)
  const uint8_t* folded = nullptr;  // lowercased copy
  const uint8_t* offsets = nullptr;
  const uint64_t* hashes = nullptr;
  uint16_t len = 0;                 // wire length, root octet included
  uint16_t labels = 0;

  size_t SuffixLength(size_t i) const { return len - offsets[i]; }
  const uint8_t* SuffixFolded(size_t i) const { return folded + offsets[i]; }
  // True when the suffix starting at label i is `other` (case-folded).
  bool SuffixIs(size_t i, const WireNameView& other) const;
  // Case-insensitive name equality.
  bool Equals(const WireNameView& other) const { return SuffixIs(0, other); }
  // Case-insensitive: this name is `ancestor` or below it.
  bool IsSubdomainOf(const WireNameView& ancestor) const {
    return labels >= ancestor.labels &&
           SuffixIs(labels - ancestor.labels, ancestor);
  }
};

// Fills `folded`, `offsets` and `hashes` (each sized for `wire`) for a
// validated uncompressed name; returns its label count.
size_t IndexWireName(std::span<const uint8_t> wire, uint8_t* folded,
                     uint8_t* offsets, uint64_t* hashes);

// A name indexed into buffers of its own, for lookups keyed on a
// WireNameView. Not copyable: the view points into the object.
class IndexedWireName {
 public:
  IndexedWireName() = default;
  explicit IndexedWireName(std::span<const uint8_t> wire) { Index(wire); }
  IndexedWireName(const IndexedWireName&) = delete;
  IndexedWireName& operator=(const IndexedWireName&) = delete;

  // Indexes `wire`, a validated uncompressed name that must outlive the
  // view.
  const WireNameView& Index(std::span<const uint8_t> wire);
  const WireNameView& view() const { return view_; }

 private:
  uint8_t folded_[kMaxNameWireLength];
  uint8_t offsets_[kMaxWireLabels];
  uint64_t hashes_[kMaxWireLabels];
  WireNameView view_;
};

// Canonical DNS order (RFC 4034 §6.1), the order of Name::operator<:
// negative, zero or positive as a sorts before, equal to or after b.
int CanonicalCompare(const WireNameView& a, const WireNameView& b);

// The compression dictionary of one message being written. Write() emits
// exactly the bytes NameCompressor::Encode would at the same offset: a
// pointer to the first recorded suffix that matches case-insensitively,
// recording each newly written suffix whose offset fits in a pointer.
class WireCompressor {
 public:
  void Reset() { entries_.clear(); }

  // Writes `name` at out + pos and returns the position after it. `name`'s
  // folded bytes must outlive the message being written.
  size_t Write(const WireNameView& name, uint8_t* out, size_t pos);

 private:
  struct Entry {
    uint64_t hash;
    const uint8_t* folded;
    uint16_t len;
    uint16_t offset;
  };
  std::vector<Entry> entries_;
};

}  // namespace ldp::dns

#endif  // LDPLAYER_DNS_WIRE_H
