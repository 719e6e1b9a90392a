// Domain names (RFC 1035 §3.1): an ordered list of labels, case-preserving
// but case-insensitive for comparison, with wire-format compression support.
#ifndef LDPLAYER_DNS_NAME_H
#define LDPLAYER_DNS_NAME_H

#include <functional>
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
  // The root name (zero labels).
  Name() = default;

  // Parses presentation format ("www.example.com", trailing dot optional,
  // "." is the root). Supports \DDD and \X escapes per RFC 1035 §5.1.
  static Result<Name> Parse(std::string_view text);

  static Name Root() { return Name(); }

  // Builds from raw labels (no escaping applied); each label must be
  // non-empty and <= 63 octets.
  static Result<Name> FromLabels(std::vector<std::string> labels);

  bool IsRoot() const { return labels_.empty(); }
  size_t label_count() const { return labels_.size(); }
  const std::vector<std::string>& labels() const { return labels_; }

  // Length of the wire encoding without compression (labels + length octets
  // + terminal zero octet).
  size_t WireLength() const;

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
  bool IsWildcard() const;

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

  size_t Hash() const;

 private:
  std::vector<std::string> labels_;  // leftmost label first
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
void EncodeNameUncompressed(const Name& name, ByteWriter& writer);

}  // namespace ldp::dns

template <>
struct std::hash<ldp::dns::Name> {
  size_t operator()(const ldp::dns::Name& n) const noexcept { return n.Hash(); }
};

#endif  // LDPLAYER_DNS_NAME_H
