#include "dns/name.h"

#include <algorithm>
#include <cctype>
#include <cstring>

namespace ldp::dns {
namespace {

constexpr size_t kMaxLabels = 128;  // 255-octet names hold <= 127 labels

// ASCII case folding (A-Z only). Length octets (<= 63) are never folded,
// so whole wire forms compare label by label.
uint8_t FoldCase(uint8_t c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<uint8_t>(c + ('a' - 'A')) : c;
}

bool FoldedEqual(const char* a, const char* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (FoldCase(static_cast<uint8_t>(a[i])) !=
        FoldCase(static_cast<uint8_t>(b[i]))) {
      return false;
    }
  }
  return true;
}

// memcmp-style comparison of the case-folded labels starting at the length
// octets `a` and `b` (RFC 4034 §6.1).
int LabelCompare(const char* a, const char* b) {
  size_t a_len = static_cast<uint8_t>(a[0]);
  size_t b_len = static_cast<uint8_t>(b[0]);
  size_t n = std::min(a_len, b_len);
  for (size_t i = 1; i <= n; ++i) {
    uint8_t ca = FoldCase(static_cast<uint8_t>(a[i]));
    uint8_t cb = FoldCase(static_cast<uint8_t>(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a_len != b_len) return a_len < b_len ? -1 : 1;
  return 0;
}

// Fills `offsets` with where each label of `wire` starts; returns the count.
size_t LabelOffsets(const std::string& wire, uint8_t* offsets) {
  size_t labels = 0;
  for (size_t pos = 0; pos < wire.size();
       pos += 1 + static_cast<uint8_t>(wire[pos])) {
    offsets[labels++] = static_cast<uint8_t>(pos);
  }
  return labels;
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

Result<Name> Name::Parse(std::string_view text) {
  Name name;
  if (text.empty()) {
    return Error(ErrorCode::kParseError, "empty name (root is \".\")");
  }
  if (text == ".") return name;

  // Labels are written straight into the wire form: a placeholder length
  // octet at `label_start`, patched when the label ends.
  std::string& wire = name.wire_;
  wire.reserve(text.size() + 1);
  size_t label_start = 0;
  wire.push_back('\0');
  size_t i = 0;
  auto flush_label = [&]() -> Status {
    size_t len = wire.size() - label_start - 1;
    if (len == 0) {
      return Error(ErrorCode::kParseError,
                   "empty label in name: " + std::string(text));
    }
    if (len > kMaxLabelLength) {
      return Error(ErrorCode::kParseError,
                   "label longer than 63 octets in: " + std::string(text));
    }
    wire[label_start] = static_cast<char>(len);
    label_start = wire.size();
    wire.push_back('\0');
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
        wire.push_back(static_cast<char>(value));
        i += 4;
      } else {
        wire.push_back(next);
        i += 2;
      }
      continue;
    }
    wire.push_back(c);
    ++i;
  }
  if (wire.size() > label_start + 1) LDP_RETURN_IF_ERROR(flush_label());
  wire.pop_back();  // the placeholder of the label that never started

  if (name.WireLength() > kMaxNameWireLength) {
    return Error(ErrorCode::kParseError,
                 "name exceeds 255 octets: " + std::string(text));
  }
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
  name.wire_.reserve(wire_length - 1);
  for (const auto& label : labels) {
    name.wire_.push_back(static_cast<char>(label.size()));
    name.wire_.append(label);
  }
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
  return Name(std::string(reinterpret_cast<const char*>(wire.data()), pos));
}

size_t Name::label_count() const {
  size_t count = 0;
  for (size_t pos = 0; pos < wire_.size();
       pos += 1 + static_cast<uint8_t>(wire_[pos])) {
    ++count;
  }
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
  out.reserve(wire_.size());
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
  return Name(wire_.substr(1 + static_cast<uint8_t>(wire_[0])));
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
  std::string wire;
  wire.reserve(1 + label.size() + wire_.size());
  wire.push_back(static_cast<char>(label.size()));
  wire.append(label);
  wire.append(wire_);
  return Name(std::move(wire));
}

bool Name::IsSubdomainOf(const Name& ancestor) const {
  if (ancestor.wire_.size() > wire_.size()) return false;
  // The ancestor must start on a label boundary of this name.
  size_t skip = wire_.size() - ancestor.wire_.size();
  size_t pos = 0;
  while (pos < skip) pos += 1 + static_cast<uint8_t>(wire_[pos]);
  return pos == skip && FoldedEqual(wire_.data() + pos, ancestor.wire_.data(),
                                    ancestor.wire_.size());
}

Result<Name> Name::AsWildcardSibling() const {
  if (IsRoot()) {
    return Error(ErrorCode::kInvalidArgument, "root has no wildcard sibling");
  }
  size_t parent = 1 + static_cast<uint8_t>(wire_[0]);
  std::string wire;
  wire.reserve(2 + wire_.size() - parent);
  wire.append("\1*", 2);
  wire.append(wire_, parent);
  return Name(std::move(wire));
}

bool Name::operator==(const Name& other) const {
  return wire_.size() == other.wire_.size() &&
         FoldedEqual(wire_.data(), other.wire_.data(), wire_.size());
}

bool Name::operator<(const Name& other) const {
  // Canonical order: compare from the rightmost label.
  uint8_t mine[kMaxLabels];
  uint8_t theirs[kMaxLabels];
  size_t my_labels = LabelOffsets(wire_, mine);
  size_t their_labels = LabelOffsets(other.wire_, theirs);
  size_t n = std::min(my_labels, their_labels);
  for (size_t i = 1; i <= n; ++i) {
    int cmp = LabelCompare(wire_.data() + mine[my_labels - i],
                           other.wire_.data() + theirs[their_labels - i]);
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
  size_t labels_end = wire.size() - 1;
  // Suffix keys are case-folded wire octets without the root octet.
  std::string folded(labels_end, '\0');
  for (size_t i = 0; i < labels_end; ++i) {
    folded[i] = static_cast<char>(FoldCase(wire[i]));
  }
  for (size_t pos = 0; pos < labels_end; pos += 1 + wire[pos]) {
    std::string key = folded.substr(pos);
    auto it = suffix_offsets_.find(key);
    if (it != suffix_offsets_.end()) {
      writer.WriteU16(static_cast<uint16_t>(0xc000 | it->second));
      return;
    }
    if (writer.size() <= 0x3fff) {
      suffix_offsets_.emplace(std::move(key),
                              static_cast<uint16_t>(writer.size()));
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
  const char* labels = reinterpret_cast<const char*>(buf.data());
  if (!jumped) return Name(std::string(labels + run, wire_len));
  std::memcpy(wire + copied, labels + run, pos - run);
  return Name(std::string(wire, wire_len));
}

}  // namespace ldp::dns
