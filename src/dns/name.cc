#include "dns/name.h"

#include <algorithm>
#include <cctype>

namespace ldp::dns {
namespace {

char FoldCase(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

bool LabelEquals(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (FoldCase(a[i]) != FoldCase(b[i])) return false;
  }
  return true;
}

// memcmp-style comparison of case-folded labels (RFC 4034 §6.1).
int LabelCompare(const std::string& a, const std::string& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    unsigned char ca = static_cast<unsigned char>(FoldCase(a[i]));
    unsigned char cb = static_cast<unsigned char>(FoldCase(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
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

  std::string label;
  size_t i = 0;
  auto flush_label = [&]() -> Status {
    if (label.empty()) {
      return Error(ErrorCode::kParseError,
                   "empty label in name: " + std::string(text));
    }
    if (label.size() > kMaxLabelLength) {
      return Error(ErrorCode::kParseError,
                   "label longer than 63 octets in: " + std::string(text));
    }
    name.labels_.push_back(std::move(label));
    label.clear();
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
        label.push_back(static_cast<char>(value));
        i += 4;
      } else {
        label.push_back(next);
        i += 2;
      }
      continue;
    }
    label.push_back(c);
    ++i;
  }
  if (!label.empty()) LDP_RETURN_IF_ERROR(flush_label());

  if (name.WireLength() > kMaxNameWireLength) {
    return Error(ErrorCode::kParseError,
                 "name exceeds 255 octets: " + std::string(text));
  }
  return name;
}

Result<Name> Name::FromLabels(std::vector<std::string> labels) {
  for (const auto& label : labels) {
    if (label.empty()) {
      return Error(ErrorCode::kInvalidArgument, "empty label");
    }
    if (label.size() > kMaxLabelLength) {
      return Error(ErrorCode::kInvalidArgument, "label longer than 63 octets");
    }
  }
  Name name;
  name.labels_ = std::move(labels);
  if (name.WireLength() > kMaxNameWireLength) {
    return Error(ErrorCode::kInvalidArgument, "name exceeds 255 octets");
  }
  return name;
}

size_t Name::WireLength() const {
  size_t len = 1;  // terminal zero octet
  for (const auto& label : labels_) len += 1 + label.size();
  return len;
}

std::string Name::ToString() const {
  if (labels_.empty()) return ".";
  std::string out;
  for (const auto& label : labels_) {
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
  Name parent;
  parent.labels_.assign(labels_.begin() + 1, labels_.end());
  return parent;
}

Result<Name> Name::Child(std::string_view label) const {
  std::vector<std::string> labels;
  labels.reserve(labels_.size() + 1);
  labels.emplace_back(label);
  labels.insert(labels.end(), labels_.begin(), labels_.end());
  return FromLabels(std::move(labels));
}

bool Name::IsSubdomainOf(const Name& ancestor) const {
  if (ancestor.labels_.size() > labels_.size()) return false;
  size_t offset = labels_.size() - ancestor.labels_.size();
  for (size_t i = 0; i < ancestor.labels_.size(); ++i) {
    if (!LabelEquals(labels_[offset + i], ancestor.labels_[i])) return false;
  }
  return true;
}

bool Name::IsWildcard() const {
  return !labels_.empty() && labels_.front() == "*";
}

Result<Name> Name::AsWildcardSibling() const {
  if (IsRoot()) {
    return Error(ErrorCode::kInvalidArgument, "root has no wildcard sibling");
  }
  Name out;
  out.labels_.reserve(labels_.size());
  out.labels_.emplace_back("*");
  out.labels_.insert(out.labels_.end(), labels_.begin() + 1, labels_.end());
  return out;
}

bool Name::operator==(const Name& other) const {
  if (labels_.size() != other.labels_.size()) return false;
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (!LabelEquals(labels_[i], other.labels_[i])) return false;
  }
  return true;
}

bool Name::operator<(const Name& other) const {
  // Canonical order: compare from the rightmost label.
  size_t n = std::min(labels_.size(), other.labels_.size());
  for (size_t i = 1; i <= n; ++i) {
    int cmp = LabelCompare(labels_[labels_.size() - i],
                           other.labels_[other.labels_.size() - i]);
    if (cmp != 0) return cmp < 0;
  }
  return labels_.size() < other.labels_.size();
}

std::string Name::CanonicalKey() const {
  std::string out = ToString();
  for (char& c : out) c = FoldCase(c);
  return out;
}

size_t Name::Hash() const {
  // FNV-1a over case-folded labels with separators.
  size_t h = 1469598103934665603ULL;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (const auto& label : labels_) {
    for (char c : label) mix(static_cast<unsigned char>(FoldCase(c)));
    mix(0);
  }
  return h;
}

void NameCompressor::Encode(const Name& name, ByteWriter& writer) {
  const auto& labels = name.labels();
  for (size_t i = 0; i < labels.size(); ++i) {
    // Suffix starting at label i, as case-folded wire octets.
    std::string key;
    for (size_t j = i; j < labels.size(); ++j) {
      key.push_back(static_cast<char>(labels[j].size()));
      for (char c : labels[j]) key.push_back(FoldCase(c));
    }
    auto it = suffix_offsets_.find(key);
    if (it != suffix_offsets_.end()) {
      writer.WriteU16(static_cast<uint16_t>(0xc000 | it->second));
      return;
    }
    if (writer.size() <= 0x3fff) {
      suffix_offsets_.emplace(std::move(key),
                              static_cast<uint16_t>(writer.size()));
    }
    writer.WriteU8(static_cast<uint8_t>(labels[i].size()));
    writer.WriteString(labels[i]);
  }
  writer.WriteU8(0);
}

void EncodeNameUncompressed(const Name& name, ByteWriter& writer) {
  for (const auto& label : name.labels()) {
    writer.WriteU8(static_cast<uint8_t>(label.size()));
    writer.WriteString(label);
  }
  writer.WriteU8(0);
}

Result<Name> DecodeName(ByteReader& reader) {
  std::vector<std::string> labels;
  size_t wire_len = 1;
  // After the first pointer we stop advancing the caller's cursor; we walk
  // the rest of the name at `jump` offsets via a secondary reader.
  bool jumped = false;
  ByteReader follower(reader.buffer());
  LDP_RETURN_IF_ERROR(follower.Seek(reader.offset()));
  int pointer_hops = 0;

  while (true) {
    LDP_ASSIGN_OR_RETURN(uint8_t len, follower.ReadU8());
    if ((len & 0xc0) == 0xc0) {
      LDP_ASSIGN_OR_RETURN(uint8_t low, follower.ReadU8());
      size_t target = (static_cast<size_t>(len & 0x3f) << 8) | low;
      if (!jumped) {
        LDP_RETURN_IF_ERROR(reader.Seek(follower.offset()));
        jumped = true;
      }
      if (++pointer_hops > 64) {
        return Error(ErrorCode::kParseError, "compression pointer loop");
      }
      // Pointers must point strictly backwards from their own position
      // (the two pointer octets just consumed); this rules out loops.
      if (target + 2 > follower.offset()) {
        return Error(ErrorCode::kParseError, "forward compression pointer");
      }
      LDP_RETURN_IF_ERROR(follower.Seek(target));
      continue;
    }
    if ((len & 0xc0) != 0) {
      return Error(ErrorCode::kParseError, "reserved label type");
    }
    if (len == 0) break;
    LDP_ASSIGN_OR_RETURN(auto span, follower.ReadSpan(len));
    labels.emplace_back(span.begin(), span.end());
    wire_len += 1 + len;
    if (wire_len > kMaxNameWireLength) {
      return Error(ErrorCode::kParseError, "decoded name exceeds 255 octets");
    }
  }
  if (!jumped) {
    LDP_RETURN_IF_ERROR(reader.Seek(follower.offset()));
  }
  return Name::FromLabels(std::move(labels));
}

}  // namespace ldp::dns
