// Domain names (RFC 1035 §3.1): an ordered list of labels, case-preserving
// but case-insensitive for comparison, with wire-format compression support.
//
// A Name is stored as its uncompressed wire form in one string: each label
// as a length octet and its octets, case preserved. The root octet that
// ends the wire form is the string's own terminating NUL, so the empty
// string is the root and wire() always ends in the zero octet.
#ifndef LDPLAYER_DNS_NAME_H
#define LDPLAYER_DNS_NAME_H

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace ldp::dns {

constexpr size_t kMaxLabelLength = 63;
constexpr size_t kMaxNameWireLength = 255;

class Name {
 public:
  // The labels, leftmost first, as views into the wire form; iterating
  // allocates nothing: `for (std::string_view label : name.label_views())`.
  class LabelIterator {
   public:
    explicit LabelIterator(const char* pos) : pos_(pos) {}
    std::string_view operator*() const {
      return {pos_ + 1, static_cast<uint8_t>(*pos_)};
    }
    LabelIterator& operator++() {
      pos_ += 1 + static_cast<uint8_t>(*pos_);
      return *this;
    }
    bool operator==(const LabelIterator& other) const = default;

   private:
    const char* pos_;  // at a label's length octet
  };
  struct LabelRange {
    LabelIterator first;
    LabelIterator last;
    LabelIterator begin() const { return first; }
    LabelIterator end() const { return last; }
  };

  // The root name (zero labels).
  Name() = default;

  // Parses presentation format ("www.example.com", trailing dot optional,
  // "." is the root). Supports \DDD and \X escapes per RFC 1035 §5.1.
  static Result<Name> Parse(std::string_view text);

  static Name Root() { return Name(); }

  // Builds from raw labels (no escaping applied); each label must be
  // non-empty and <= 63 octets.
  static Result<Name> FromLabels(const std::vector<std::string>& labels);

  // Builds from an uncompressed wire form: plain labels ending in the root
  // octet, at most 255 octets (e.g. a tail of another name's wire()).
  static Result<Name> FromWire(std::span<const uint8_t> wire);

  bool IsRoot() const { return wire_.empty(); }
  size_t label_count() const;
  // A copy of the labels; label_views() reads them without allocating.
  std::vector<std::string> labels() const;
  LabelRange label_views() const {
    return {LabelIterator(wire_.data()),
            LabelIterator(wire_.data() + wire_.size())};
  }

  // The uncompressed wire encoding, case preserved, root octet included.
  std::span<const uint8_t> wire() const {
    return {reinterpret_cast<const uint8_t*>(wire_.data()), wire_.size() + 1};
  }

  // Length of the wire encoding without compression (labels + length octets
  // + terminal zero octet).
  size_t WireLength() const { return wire_.size() + 1; }

  // Presentation format, always with a trailing dot ("www.example.com.",
  // root is ".").
  std::string ToString() const;

  // Strips the leftmost label; calling on the root is an error.
  Result<Name> Parent() const;

  // Prepends `label` (e.g. Child("www") on example.com -> www.example.com).
  Result<Name> Child(std::string_view label) const;

  // True if *this is `ancestor` or inside it (example.com is a subdomain of
  // com and of the root). Case-insensitive, per DNS semantics.
  bool IsSubdomainOf(const Name& ancestor) const;

  // True iff the leftmost label is "*" (wildcard owner name, RFC 4592).
  bool IsWildcard() const {
    return wire_.size() >= 2 && wire_[0] == 1 && wire_[1] == '*';
  }

  // The wildcard name covering this name's immediate parent domain:
  // a.b.example.com -> *.b.example.com.
  Result<Name> AsWildcardSibling() const;

  // Case-insensitive equality/ordering. Ordering is canonical DNS order
  // (RFC 4034 §6.1): by label from the rightmost, case-folded, memcmp-style.
  bool operator==(const Name& other) const;
  bool operator!=(const Name& other) const { return !(*this == other); }
  bool operator<(const Name& other) const;

  // Lowercased presentation form; used as a canonical map key.
  std::string CanonicalKey() const;

  // FNV-1a over the case-folded label octets, each label followed by a
  // zero octet.
  size_t Hash() const;

 private:
  friend Result<Name> DecodeName(ByteReader& reader);

  explicit Name(std::string wire) : wire_(std::move(wire)) {}

  std::string wire_;  // length-prefixed labels, leftmost first; no root octet
};

// Tracks name→offset mappings while encoding a message so later names can
// emit compression pointers (RFC 1035 §4.1.4). One compressor per message.
// Suffixes are keyed by their case-folded wire form.
class NameCompressor {
 public:
  // Appends the wire form of `name` to `writer`, emitting a pointer to a
  // previously written suffix when one exists, and recording newly written
  // suffixes (only offsets < 0x3fff are recordable).
  void Encode(const Name& name, ByteWriter& writer);

 private:
  std::unordered_map<std::string, uint16_t> suffix_offsets_;
};

// Decodes a wire-format name starting at the reader's cursor, following
// compression pointers through reader.buffer(). The cursor advances past the
// name as it appears in the stream (pointers count as 2 bytes).
Result<Name> DecodeName(ByteReader& reader);

// Encodes without compression (e.g. for canonical forms and hashing).
inline void EncodeNameUncompressed(const Name& name, ByteWriter& writer) {
  writer.WriteBytes(name.wire());
}

}  // namespace ldp::dns

template <>
struct std::hash<ldp::dns::Name> {
  size_t operator()(const ldp::dns::Name& n) const noexcept { return n.Hash(); }
};

#endif  // LDPLAYER_DNS_NAME_H
