#include "dns/name.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "dns/wire.h"

namespace ldp::dns {
namespace {

constexpr size_t kMaxLabels = 128;  // 255-octet names hold <= 127 labels

// ASCII case folding (A-Z only). Length octets (<= 63) are never folded,
// so whole wire forms compare label by label.
uint8_t FoldCase(uint8_t c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<uint8_t>(c + ('a' - 'A')) : c;
}

bool FoldedEqual(const uint8_t* a, const uint8_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (FoldCase(a[i]) != FoldCase(b[i])) return false;
  }
  return true;
}

// memcmp-style comparison of the case-folded labels starting at the length
// octets `a` and `b` (RFC 4034 §6.1).
int LabelCompare(const uint8_t* a, const uint8_t* b) {
  size_t a_len = a[0];
  size_t b_len = b[0];
  size_t n = std::min(a_len, b_len);
  for (size_t i = 1; i <= n; ++i) {
    uint8_t ca = FoldCase(a[i]);
    uint8_t cb = FoldCase(b[i]);
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a_len != b_len) return a_len < b_len ? -1 : 1;
  return 0;
}

// Fills `offsets` with where each label of `wire` starts; returns the count.
size_t LabelOffsets(std::span<const uint8_t> wire, uint8_t* offsets) {
  size_t labels = 0;
  for (size_t pos = 0; wire[pos] != 0; pos += 1 + wire[pos]) {
    offsets[labels++] = static_cast<uint8_t>(pos);
  }
  return labels;
}

// True when the name written at `offset` of `out`, followed through its
// compression pointers (which only point backwards), is the case-folded
// wire form `folded`.
bool WrittenNameIs(const Bytes& out, size_t offset, const uint8_t* folded) {
  for (size_t i = 0;; i += 1 + folded[i]) {
    while ((out[offset] & 0xc0) == 0xc0) {
      offset = (static_cast<size_t>(out[offset] & 0x3f) << 8) |
               out[offset + 1];
    }
    uint8_t len = out[offset];
    if (len != folded[i]) return false;
    if (len == 0) return true;
    for (size_t k = 1; k <= len; ++k) {
      if (FoldCase(out[offset + k]) != folded[i + k]) return false;
    }
    offset += 1 + len;
  }
}

// Does a label need escaping in presentation format? Beyond the RFC 1035
// specials ('.', '\\'), cover everything the master-file reader treats as
// structure — quotes, comments, parens, whitespace, and the '$'/'@'
// sigils — so a serialized name re-tokenizes as exactly one name token
// (found by the zone fuzzer: an owner label "$" serialized bare and
// reparsed as an unknown $-directive).
bool NeedsEscape(char c) {
  return c == '.' || c == '\\' || c == '"' || c == '$' || c == '@' ||
         c == ';' || c == '(' || c == ')' || c == ' ' ||
         !std::isprint(static_cast<unsigned char>(c));
}

// Characters the tokenizer splits on before escapes are interpreted; they
// must be emitted as \DDD (no raw occurrence), not as '\' + char.
bool NeedsDddEscape(char c) {
  return c == ';' || c == '(' || c == ')' || c == ' ' ||
         !std::isprint(static_cast<unsigned char>(c));
}

}  // namespace

uint8_t* Name::Init(size_t wire_length) {
  // Allocated before the old storage is released, so a failed allocation
  // leaves the name as it was.
  uint8_t* buffer =
      wire_length > kInlineWire ? new uint8_t[wire_length] : bytes_;
  Release();
  size_ = static_cast<uint8_t>(wire_length);
  if (on_heap()) std::memcpy(bytes_, &buffer, sizeof(buffer));
  return buffer;
}

Result<Name> Name::Parse(std::string_view text) {
  Name name;
  if (text.empty()) {
    return Error(ErrorCode::kParseError, "empty name (root is \".\")");
  }
  if (text == ".") return name;

  // Labels are written straight into a wire buffer: a placeholder length
  // octet at `label_start`, patched when the label ends. Octets past the
  // buffer are counted but not kept: such a name is over 255 octets, which
  // is reported once the labels are checked.
  uint8_t wire[kMaxNameWireLength] = {};
  size_t size = 0;
  auto push = [&](char c) {
    if (size < sizeof(wire)) wire[size] = static_cast<uint8_t>(c);
    ++size;
  };
  size_t label_start = 0;
  push('\0');
  size_t i = 0;
  auto flush_label = [&]() -> Status {
    size_t len = size - label_start - 1;
    if (len == 0) {
      return Error(ErrorCode::kParseError,
                   "empty label in name: " + std::string(text));
    }
    if (len > kMaxLabelLength) {
      return Error(ErrorCode::kParseError,
                   "label longer than 63 octets in: " + std::string(text));
    }
    if (label_start < sizeof(wire)) {
      wire[label_start] = static_cast<uint8_t>(len);
    }
    label_start = size;
    push('\0');
    return Status::Ok();
  };

  while (i < text.size()) {
    char c = text[i];
    if (c == '.') {
      LDP_RETURN_IF_ERROR(flush_label());
      ++i;
      // A trailing dot ends the name; a dot elsewhere must be followed by
      // another label, enforced by flush_label on the next '.' or at end.
      if (i == text.size()) break;
      continue;
    }
    if (c == '\\') {
      if (i + 1 >= text.size()) {
        return Error(ErrorCode::kParseError, "dangling escape in name");
      }
      char next = text[i + 1];
      if (std::isdigit(static_cast<unsigned char>(next))) {
        if (i + 3 >= text.size() ||
            !std::isdigit(static_cast<unsigned char>(text[i + 2])) ||
            !std::isdigit(static_cast<unsigned char>(text[i + 3]))) {
          return Error(ErrorCode::kParseError, "bad \\DDD escape in name");
        }
        int value = (text[i + 1] - '0') * 100 + (text[i + 2] - '0') * 10 +
                    (text[i + 3] - '0');
        if (value > 255) {
          return Error(ErrorCode::kParseError, "\\DDD escape > 255");
        }
        push(static_cast<char>(value));
        i += 4;
      } else {
        push(next);
        i += 2;
      }
      continue;
    }
    push(c);
    ++i;
  }
  if (size > label_start + 1) LDP_RETURN_IF_ERROR(flush_label());
  // The placeholder of the label that never started becomes the root octet.
  if (size > kMaxNameWireLength) {
    return Error(ErrorCode::kParseError,
                 "name exceeds 255 octets: " + std::string(text));
  }
  wire[size - 1] = 0;
  std::memcpy(name.Init(size), wire, size);
  return name;
}

Result<Name> Name::FromLabels(const std::vector<std::string>& labels) {
  size_t wire_length = 1;
  for (const auto& label : labels) {
    if (label.empty()) {
      return Error(ErrorCode::kInvalidArgument, "empty label");
    }
    if (label.size() > kMaxLabelLength) {
      return Error(ErrorCode::kInvalidArgument, "label longer than 63 octets");
    }
    wire_length += 1 + label.size();
  }
  if (wire_length > kMaxNameWireLength) {
    return Error(ErrorCode::kInvalidArgument, "name exceeds 255 octets");
  }
  Name name;
  uint8_t* out = name.Init(wire_length);
  for (const auto& label : labels) {
    *out++ = static_cast<uint8_t>(label.size());
    std::memcpy(out, label.data(), label.size());
    out += label.size();
  }
  *out = 0;
  return name;
}

Result<Name> Name::FromWire(std::span<const uint8_t> wire) {
  if (wire.size() > kMaxNameWireLength) {
    return Error(ErrorCode::kInvalidArgument, "name exceeds 255 octets");
  }
  size_t pos = 0;
  while (pos < wire.size() && wire[pos] != 0) {
    if (wire[pos] > kMaxLabelLength) {
      return Error(ErrorCode::kInvalidArgument, "not a plain wire label");
    }
    pos += 1 + wire[pos];
  }
  if (pos + 1 != wire.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "wire name does not end in exactly one root octet");
  }
  Name name;
  std::memcpy(name.Init(wire.size()), wire.data(), wire.size());
  return name;
}

size_t Name::label_count() const {
  const uint8_t* wire = data();
  size_t count = 0;
  for (size_t pos = 0; wire[pos] != 0; pos += 1 + wire[pos]) ++count;
  return count;
}

std::vector<std::string> Name::labels() const {
  std::vector<std::string> out;
  for (std::string_view label : label_views()) out.emplace_back(label);
  return out;
}

std::string Name::ToString() const {
  if (IsRoot()) return ".";
  std::string out;
  out.reserve(size_);
  for (std::string_view label : label_views()) {
    for (char c : label) {
      if (NeedsEscape(c)) {
        if (!NeedsDddEscape(c)) {
          out.push_back('\\');
          out.push_back(c);
        } else {
          unsigned value = static_cast<unsigned char>(c);
          out.push_back('\\');
          out.push_back(static_cast<char>('0' + value / 100));
          out.push_back(static_cast<char>('0' + (value / 10) % 10));
          out.push_back(static_cast<char>('0' + value % 10));
        }
      } else {
        out.push_back(c);
      }
    }
    out.push_back('.');
  }
  return out;
}

Result<Name> Name::Parent() const {
  if (IsRoot()) {
    return Error(ErrorCode::kInvalidArgument, "root has no parent");
  }
  const uint8_t* wire = data();
  size_t skip = 1 + wire[0];
  Name parent;
  std::memcpy(parent.Init(size_ - skip), wire + skip, size_ - skip);
  return parent;
}

Result<Name> Name::Child(std::string_view label) const {
  if (label.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty label");
  }
  if (label.size() > kMaxLabelLength) {
    return Error(ErrorCode::kInvalidArgument, "label longer than 63 octets");
  }
  if (WireLength() + 1 + label.size() > kMaxNameWireLength) {
    return Error(ErrorCode::kInvalidArgument, "name exceeds 255 octets");
  }
  Name child;
  uint8_t* out = child.Init(1 + label.size() + size_);
  out[0] = static_cast<uint8_t>(label.size());
  std::memcpy(out + 1, label.data(), label.size());
  std::memcpy(out + 1 + label.size(), data(), size_);
  return child;
}

bool Name::IsSubdomainOf(const Name& ancestor) const {
  if (ancestor.size_ > size_) return false;
  // The ancestor must start on a label boundary of this name.
  const uint8_t* wire = data();
  size_t skip = size_ - ancestor.size_;
  size_t pos = 0;
  while (pos < skip) pos += 1 + wire[pos];
  return pos == skip &&
         FoldedEqual(wire + pos, ancestor.data(), ancestor.size_ - 1);
}

Result<Name> Name::AsWildcardSibling() const {
  if (IsRoot()) {
    return Error(ErrorCode::kInvalidArgument, "root has no wildcard sibling");
  }
  const uint8_t* wire = data();
  size_t parent = 1 + wire[0];
  Name sibling;
  uint8_t* out = sibling.Init(2 + size_ - parent);
  out[0] = 1;
  out[1] = '*';
  std::memcpy(out + 2, wire + parent, size_ - parent);
  return sibling;
}

bool Name::operator==(const Name& other) const {
  return size_ == other.size_ && FoldedEqual(data(), other.data(), size_ - 1);
}

bool Name::operator<(const Name& other) const {
  // Canonical order: compare from the rightmost label.
  uint8_t mine[kMaxLabels];
  uint8_t theirs[kMaxLabels];
  size_t my_labels = LabelOffsets(wire(), mine);
  size_t their_labels = LabelOffsets(other.wire(), theirs);
  size_t n = std::min(my_labels, their_labels);
  for (size_t i = 1; i <= n; ++i) {
    int cmp = LabelCompare(data() + mine[my_labels - i],
                           other.data() + theirs[their_labels - i]);
    if (cmp != 0) return cmp < 0;
  }
  return my_labels < their_labels;
}

std::string Name::CanonicalKey() const {
  std::string out = ToString();
  for (char& c : out) c = static_cast<char>(FoldCase(static_cast<uint8_t>(c)));
  return out;
}

size_t Name::Hash() const {
  size_t h = 1469598103934665603ULL;
  auto mix = [&h](uint8_t c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (std::string_view label : label_views()) {
    for (char c : label) mix(FoldCase(static_cast<uint8_t>(c)));
    mix(0);
  }
  return h;
}

void NameCompressor::Encode(const Name& name, ByteWriter& writer) {
  std::span<const uint8_t> wire = name.wire();
  uint8_t folded[kMaxNameWireLength] = {};
  uint8_t offsets[kMaxWireLabels + 1] = {};
  uint64_t hashes[kMaxWireLabels + 1] = {};
  size_t labels = IndexWireName(wire, folded, offsets, hashes);
  for (size_t i = 0; i < labels; ++i) {
    size_t pos = offsets[i];
    size_t length = wire.size() - pos;
    for (const Suffix& suffix : suffixes_) {
      if (suffix.hash == hashes[i] && suffix.length == length &&
          WrittenNameIs(writer.data(), suffix.offset, folded + pos)) {
        writer.WriteU16(static_cast<uint16_t>(0xc000 | suffix.offset));
        return;
      }
    }
    if (writer.size() <= 0x3fff) {
      if (suffixes_.empty()) suffixes_.reserve(16);
      suffixes_.push_back(Suffix{hashes[i], static_cast<uint16_t>(length),
                                 static_cast<uint16_t>(writer.size())});
    }
    writer.WriteBytes(wire.subspan(pos, 1 + wire[pos]));
  }
  writer.WriteU8(0);
}

Result<Name> DecodeName(ByteReader& reader) {
  std::span<const uint8_t> buf = reader.buffer();
  size_t pos = reader.offset();
  // Labels are checked in place. A run of plain labels is contiguous in
  // the buffer, so a name without pointers is copied once, at the end;
  // each pointer first moves the run before it into `wire`.
  char wire[kMaxNameWireLength];
  size_t wire_len = 0;  // label octets so far, root octet excluded
  size_t copied = 0;    // of which already in `wire`
  size_t run = pos;     // where the current run of labels starts
  // The caller's cursor ends after the first pointer, or else after the
  // root octet.
  size_t end = 0;
  bool jumped = false;
  int pointer_hops = 0;

  while (true) {
    if (pos >= buf.size()) return Error(ErrorCode::kTruncated, "need 1 byte");
    uint8_t len = buf[pos];
    if ((len & 0xc0) == 0xc0) {
      if (pos + 1 >= buf.size()) {
        return Error(ErrorCode::kTruncated, "need 1 byte");
      }
      size_t target = (static_cast<size_t>(len & 0x3f) << 8) | buf[pos + 1];
      if (!jumped) {
        end = pos + 2;
        jumped = true;
      }
      if (++pointer_hops > 64) {
        return Error(ErrorCode::kParseError, "compression pointer loop");
      }
      // Pointers must not point past their own position; a pointer to
      // itself is caught by the hop limit.
      if (target > pos) {
        return Error(ErrorCode::kParseError, "forward compression pointer");
      }
      std::memcpy(wire + copied, buf.data() + run, pos - run);
      copied += pos - run;
      pos = run = target;
      continue;
    }
    if ((len & 0xc0) != 0) {
      return Error(ErrorCode::kParseError, "reserved label type");
    }
    if (len == 0) break;
    if (buf.size() - pos - 1 < len) {
      return Error(ErrorCode::kTruncated,
                   "need " + std::to_string(len) + " bytes, have " +
                       std::to_string(buf.size() - pos - 1));
    }
    if (wire_len + 1 + len + 1 > kMaxNameWireLength) {
      return Error(ErrorCode::kParseError, "decoded name exceeds 255 octets");
    }
    wire_len += 1 + len;
    pos += 1 + len;
  }
  LDP_RETURN_IF_ERROR(reader.Seek(jumped ? end : pos + 1));
  // The runs already gathered, then the last one with its root octet.
  Name name;
  uint8_t* out = name.Init(wire_len + 1);
  std::memcpy(out, wire, copied);
  std::memcpy(out + copied, buf.data() + run, pos + 1 - run);
  return name;
}

}  // namespace ldp::dns
