// Domain names (RFC 1035 §3.1): an ordered list of labels, case-preserving
// but case-insensitive for comparison, with wire-format compression support.
//
// A Name is stored as its uncompressed wire form: each label as a length
// octet and its octets, case preserved, then the root octet. The object is
// 24 bytes; a wire form of up to 23 octets lives inline, a longer one in
// one exact-size heap buffer.
#ifndef LDPLAYER_DNS_NAME_H
#define LDPLAYER_DNS_NAME_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
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

  // The root name (zero labels); allocates nothing.
  Name() = default;
  Name(const Name& other) : size_(other.size_) {
    std::memcpy(bytes_, other.bytes_, kInlineWire);
    if (on_heap()) {
      uint8_t* buffer = new uint8_t[size_];
      std::memcpy(buffer, other.heap(), size_);
      std::memcpy(bytes_, &buffer, sizeof(buffer));
    }
  }
  // A moved-from name is the root.
  Name(Name&& other) noexcept : size_(other.size_) {
    std::memcpy(bytes_, other.bytes_, kInlineWire);
    other.bytes_[0] = 0;
    other.size_ = 1;
  }
  Name& operator=(const Name& other) {
    if (this != &other) {
      std::memcpy(Init(other.size_), other.data(), other.size_);
    }
    return *this;
  }
  Name& operator=(Name&& other) noexcept {
    if (this != &other) {
      Release();
      size_ = other.size_;
      std::memcpy(bytes_, other.bytes_, kInlineWire);
      other.bytes_[0] = 0;
      other.size_ = 1;
    }
    return *this;
  }
  ~Name() { Release(); }

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

  bool IsRoot() const { return size_ == 1; }
  size_t label_count() const;
  // A copy of the labels; label_views() reads them without allocating.
  std::vector<std::string> labels() const;
  LabelRange label_views() const {
    const char* labels = reinterpret_cast<const char*>(data());
    return {LabelIterator(labels), LabelIterator(labels + size_ - 1)};
  }

  // The uncompressed wire encoding, case preserved, root octet included.
  std::span<const uint8_t> wire() const { return {data(), size_}; }

  // Length of the wire encoding without compression (labels + length octets
  // + terminal zero octet).
  size_t WireLength() const { return size_; }

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
    return size_ >= 3 && data()[0] == 1 && data()[1] == '*';
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

  // The longest wire form (root octet included) kept inline.
  static constexpr size_t kInlineWire = 23;

  bool on_heap() const { return size_ > kInlineWire; }
  uint8_t* heap() const {
    uint8_t* buffer = nullptr;
    std::memcpy(&buffer, bytes_, sizeof(buffer));
    return buffer;
  }
  const uint8_t* data() const { return on_heap() ? heap() : bytes_; }

  // Sizes the storage for a wire form of `wire_length` octets (1..255) and
  // returns where the caller writes it; the old contents are dropped.
  uint8_t* Init(size_t wire_length);
  void Release() {
    if (on_heap()) delete[] heap();
  }

  // The wire form, root octet included: in bytes_ up to kInlineWire
  // octets, else in a heap buffer of exactly size_ octets whose address is
  // stored in bytes_'s first 8 octets.
  alignas(uint8_t*) uint8_t bytes_[kInlineWire] = {};
  uint8_t size_ = 1;  // wire length, root octet included
};

static_assert(sizeof(Name) == 24);

// Tracks name→offset mappings while encoding a message so later names can
// emit compression pointers (RFC 1035 §4.1.4). One compressor per message,
// always used with the same writer. A suffix is recorded by the hash of its
// case-folded wire form, its length and its offset; a candidate match is
// confirmed against the bytes already written there.
class NameCompressor {
 public:
  // Appends the wire form of `name` to `writer`, emitting a pointer to a
  // previously written suffix when one exists, and recording newly written
  // suffixes (only offsets < 0x3fff are recordable).
  void Encode(const Name& name, ByteWriter& writer);

 private:
  struct Suffix {
    uint64_t hash;
    uint16_t length;  // wire octets, root octet included
    uint16_t offset;
  };
  std::vector<Suffix> suffixes_;
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
