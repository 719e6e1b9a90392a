// Differential oracle for dns::Name. RefName below is the label-vector
// implementation Name had before it stored its wire form: the same parsing,
// printing, comparison, hashing and compression logic over a
// std::vector<std::string>. Random names — mixed case, every escape class,
// 63-octet labels, 255-octet names, the root and "*" — go through both, and
// every observable result must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dns/name.h"

namespace ldp::dns {
namespace {

// ---- The reference: Name as a vector of label strings. ----

char RefFold(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

bool RefLabelEquals(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (RefFold(a[i]) != RefFold(b[i])) return false;
  }
  return true;
}

int RefLabelCompare(const std::string& a, const std::string& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    unsigned char ca = static_cast<unsigned char>(RefFold(a[i]));
    unsigned char cb = static_cast<unsigned char>(RefFold(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

bool RefNeedsEscape(char c) {
  return c == '.' || c == '\\' || c == '"' || c == '$' || c == '@' ||
         c == ';' || c == '(' || c == ')' || c == ' ' ||
         !std::isprint(static_cast<unsigned char>(c));
}

bool RefNeedsDddEscape(char c) {
  return c == ';' || c == '(' || c == ')' || c == ' ' ||
         !std::isprint(static_cast<unsigned char>(c));
}

struct RefName {
  std::vector<std::string> labels;

  static Result<RefName> Parse(std::string_view text) {
    RefName name;
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
      name.labels.push_back(std::move(label));
      label.clear();
      return Status::Ok();
    };
    while (i < text.size()) {
      char c = text[i];
      if (c == '.') {
        LDP_RETURN_IF_ERROR(flush_label());
        ++i;
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

  static Result<RefName> FromLabels(std::vector<std::string> labels) {
    for (const auto& label : labels) {
      if (label.empty()) {
        return Error(ErrorCode::kInvalidArgument, "empty label");
      }
      if (label.size() > kMaxLabelLength) {
        return Error(ErrorCode::kInvalidArgument,
                     "label longer than 63 octets");
      }
    }
    RefName name;
    name.labels = std::move(labels);
    if (name.WireLength() > kMaxNameWireLength) {
      return Error(ErrorCode::kInvalidArgument, "name exceeds 255 octets");
    }
    return name;
  }

  size_t WireLength() const {
    size_t len = 1;
    for (const auto& label : labels) len += 1 + label.size();
    return len;
  }

  std::string ToString() const {
    if (labels.empty()) return ".";
    std::string out;
    for (const auto& label : labels) {
      for (char c : label) {
        if (RefNeedsEscape(c)) {
          if (!RefNeedsDddEscape(c)) {
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

  Result<RefName> Parent() const {
    if (labels.empty()) {
      return Error(ErrorCode::kInvalidArgument, "root has no parent");
    }
    RefName parent;
    parent.labels.assign(labels.begin() + 1, labels.end());
    return parent;
  }

  Result<RefName> Child(std::string_view label) const {
    std::vector<std::string> out;
    out.emplace_back(label);
    out.insert(out.end(), labels.begin(), labels.end());
    return FromLabels(std::move(out));
  }

  bool IsSubdomainOf(const RefName& ancestor) const {
    if (ancestor.labels.size() > labels.size()) return false;
    size_t offset = labels.size() - ancestor.labels.size();
    for (size_t i = 0; i < ancestor.labels.size(); ++i) {
      if (!RefLabelEquals(labels[offset + i], ancestor.labels[i])) {
        return false;
      }
    }
    return true;
  }

  bool IsWildcard() const { return !labels.empty() && labels.front() == "*"; }

  Result<RefName> AsWildcardSibling() const {
    if (labels.empty()) {
      return Error(ErrorCode::kInvalidArgument,
                   "root has no wildcard sibling");
    }
    RefName out;
    out.labels.emplace_back("*");
    out.labels.insert(out.labels.end(), labels.begin() + 1, labels.end());
    return out;
  }

  bool operator==(const RefName& other) const {
    if (labels.size() != other.labels.size()) return false;
    for (size_t i = 0; i < labels.size(); ++i) {
      if (!RefLabelEquals(labels[i], other.labels[i])) return false;
    }
    return true;
  }

  bool operator<(const RefName& other) const {
    size_t n = std::min(labels.size(), other.labels.size());
    for (size_t i = 1; i <= n; ++i) {
      int cmp = RefLabelCompare(labels[labels.size() - i],
                                other.labels[other.labels.size() - i]);
      if (cmp != 0) return cmp < 0;
    }
    return labels.size() < other.labels.size();
  }

  std::string CanonicalKey() const {
    std::string out = ToString();
    for (char& c : out) c = RefFold(c);
    return out;
  }

  size_t Hash() const {
    size_t h = 1469598103934665603ULL;
    auto mix = [&h](unsigned char c) {
      h ^= c;
      h *= 1099511628211ULL;
    };
    for (const auto& label : labels) {
      for (char c : label) mix(static_cast<unsigned char>(RefFold(c)));
      mix(0);
    }
    return h;
  }
};

class RefCompressor {
 public:
  void Encode(const RefName& name, ByteWriter& writer) {
    const auto& labels = name.labels;
    for (size_t i = 0; i < labels.size(); ++i) {
      std::string key;
      for (size_t j = i; j < labels.size(); ++j) {
        key.push_back(static_cast<char>(labels[j].size()));
        for (char c : labels[j]) key.push_back(RefFold(c));
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

 private:
  std::unordered_map<std::string, uint16_t> suffix_offsets_;
};

void RefEncodeUncompressed(const RefName& name, ByteWriter& writer) {
  for (const auto& label : name.labels) {
    writer.WriteU8(static_cast<uint8_t>(label.size()));
    writer.WriteString(label);
  }
  writer.WriteU8(0);
}

// ---- Random inputs. ----

// One octet from a class chosen at random: lower/upper letters, digits,
// '-', '*', the characters escaped as "\X", those escaped as "\DDD", and
// any octet at all.
char RandomOctet(Rng& rng) {
  static const std::string kBackslashed = ".\\\"$@";
  static const std::string kDdd = ";() ";
  switch (rng.NextBelow(9)) {
    case 0:
    case 1: return static_cast<char>('a' + rng.NextBelow(26));
    case 2:
    case 3: return static_cast<char>('A' + rng.NextBelow(26));
    case 4: return static_cast<char>('0' + rng.NextBelow(10));
    case 5: return rng.NextBelow(2) ? '-' : '*';
    case 6: return kBackslashed[rng.NextBelow(kBackslashed.size())];
    case 7: return kDdd[rng.NextBelow(kDdd.size())];
    default: return static_cast<char>(rng.NextBelow(256));
  }
}

std::string RandomLabel(Rng& rng, const std::vector<std::string>& pool) {
  switch (rng.NextBelow(10)) {
    case 0: return "*";
    case 1: {
      std::string label(kMaxLabelLength, '\0');
      for (char& c : label) c = RandomOctet(rng);
      return label;
    }
    case 2:
    case 3:
    case 4:
      // Shared labels, so names share suffixes and case-variants of them.
      return pool[rng.NextBelow(pool.size())];
    default: {
      std::string label(1 + rng.NextBelow(12), '\0');
      for (char& c : label) c = RandomOctet(rng);
      return label;
    }
  }
}

// Random labels for a name: usually valid, sometimes over a limit (an
// empty label, a 64-octet label, or more than 255 octets in all).
std::vector<std::string> RandomLabels(Rng& rng,
                                      const std::vector<std::string>& pool) {
  std::vector<std::string> labels;
  switch (rng.NextBelow(20)) {
    case 0: return labels;  // the root
    case 1:                 // 254, 255 or 256 octets of long labels
      for (int i = 0; i < 3; ++i) {
        labels.push_back(std::string(kMaxLabelLength, '\0'));
        for (char& c : labels.back()) c = RandomOctet(rng);
      }
      labels.push_back(std::string(60 + rng.NextBelow(3), 'y'));
      return labels;
    case 2:                 // 126-128 one-octet labels: 253-257 octets
      for (size_t i = 126 + rng.NextBelow(3); i > 0; --i) {
        labels.push_back(std::string(1, RandomOctet(rng)));
      }
      return labels;
    case 3: labels.push_back(""); break;
    case 4: labels.push_back(std::string(kMaxLabelLength + 1, 'z')); break;
    default: break;
  }
  size_t extra = rng.NextBelow(6);
  for (size_t i = 0; i < extra; ++i) labels.push_back(RandomLabel(rng, pool));
  return labels;
}

// The name with each letter's case flipped at random.
std::vector<std::string> FlipCase(Rng& rng, std::vector<std::string> labels) {
  for (auto& label : labels) {
    for (char& c : label) {
      if (std::isalpha(static_cast<unsigned char>(c)) && rng.NextBelow(2)) {
        c = static_cast<char>(c ^ 0x20);
      }
    }
  }
  return labels;
}

// Presentation text that may or may not parse: a valid rendering with
// random edits, or octets drawn from the characters Parse treats specially.
std::string RandomText(Rng& rng, const std::string& base) {
  static const std::string kAlphabet = "aZ09.\\\\..-*\" ;$@";
  std::string text;
  if (rng.NextBelow(2) == 0) {
    text = base;
    size_t edits = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < edits && !text.empty(); ++i) {
      size_t at = rng.NextBelow(text.size());
      switch (rng.NextBelow(3)) {
        case 0: text.erase(at, 1); break;
        case 1:
          text.insert(at, 1, kAlphabet[rng.NextBelow(kAlphabet.size())]);
          break;
        default: text[at] = kAlphabet[rng.NextBelow(kAlphabet.size())];
      }
    }
  } else {
    size_t len = rng.NextBelow(20);
    for (size_t i = 0; i < len; ++i) {
      text.push_back(rng.NextBelow(4) == 0
                         ? static_cast<char>('0' + rng.NextBelow(10))
                         : kAlphabet[rng.NextBelow(kAlphabet.size())]);
    }
  }
  return text;
}

// ---- The comparison. ----

template <typename A, typename B>
void ExpectSameOutcome(const Result<A>& mine, const Result<B>& ref,
                       const std::string& what) {
  ASSERT_EQ(mine.ok(), ref.ok()) << what;
  if (!mine.ok()) {
    EXPECT_EQ(mine.error().ToString(), ref.error().ToString()) << what;
  }
}

Bytes Uncompressed(const Name& name) {
  ByteWriter writer;
  EncodeNameUncompressed(name, writer);
  return writer.data();
}

Bytes RefUncompressed(const RefName& name) {
  ByteWriter writer;
  RefEncodeUncompressed(name, writer);
  return writer.data();
}

// Every single-name observable of `mine` against `ref`.
void ExpectSameName(const Name& mine, const RefName& ref) {
  std::string what = ref.ToString();
  ASSERT_EQ(mine.ToString(), ref.ToString());
  EXPECT_EQ(mine.labels(), ref.labels) << what;
  EXPECT_EQ(mine.label_count(), ref.labels.size()) << what;
  EXPECT_EQ(mine.IsRoot(), ref.labels.empty()) << what;
  EXPECT_EQ(mine.CanonicalKey(), ref.CanonicalKey()) << what;
  EXPECT_EQ(mine.WireLength(), ref.WireLength()) << what;
  EXPECT_EQ(mine.Hash(), ref.Hash()) << what;
  Bytes wire = Uncompressed(mine);
  EXPECT_EQ(wire, RefUncompressed(ref)) << what;
  EXPECT_EQ(Bytes(mine.wire().begin(), mine.wire().end()), wire) << what;
  EXPECT_EQ(mine.IsWildcard(), ref.IsWildcard()) << what;

  ExpectSameOutcome(mine.Parent(), ref.Parent(), what + " Parent");
  if (auto parent = mine.Parent(); parent.ok()) {
    EXPECT_EQ(parent->ToString(), ref.Parent()->ToString()) << what;
  }
  ExpectSameOutcome(mine.AsWildcardSibling(), ref.AsWildcardSibling(),
                    what + " AsWildcardSibling");
  if (auto sibling = mine.AsWildcardSibling(); sibling.ok()) {
    EXPECT_EQ(sibling->ToString(), ref.AsWildcardSibling()->ToString())
        << what;
  }
  static const std::string kChildLabels[] = {"*", "", "Www",
                                            std::string(63, 'q'),
                                            std::string(64, 'q')};
  for (const std::string& label : kChildLabels) {
    auto child = mine.Child(label);
    auto ref_child = ref.Child(label);
    ExpectSameOutcome(child, ref_child, what + " Child");
    if (child.ok()) {
      EXPECT_EQ(child->ToString(), ref_child->ToString());
    }
  }
  ByteReader reader(wire);
  auto decoded = DecodeName(reader);
  ASSERT_TRUE(decoded.ok()) << what;
  EXPECT_EQ(decoded->ToString(), ref.ToString());
  EXPECT_TRUE(reader.AtEnd()) << what;
}

// Every two-name observable of (mine_a, mine_b) against (ref_a, ref_b).
void ExpectSamePair(const Name& mine_a, const Name& mine_b,
                    const RefName& ref_a, const RefName& ref_b) {
  std::string what = ref_a.ToString() + " vs " + ref_b.ToString();
  EXPECT_EQ(mine_a == mine_b, ref_a == ref_b) << what;
  EXPECT_EQ(mine_a != mine_b, !(ref_a == ref_b)) << what;
  EXPECT_EQ(mine_a < mine_b, ref_a < ref_b) << what;
  EXPECT_EQ(mine_b < mine_a, ref_b < ref_a) << what;
  EXPECT_EQ(mine_a.IsSubdomainOf(mine_b), ref_a.IsSubdomainOf(ref_b)) << what;
  EXPECT_EQ(mine_b.IsSubdomainOf(mine_a), ref_b.IsSubdomainOf(ref_a)) << what;
}

std::vector<std::string> LabelPool(Rng& rng) {
  std::vector<std::string> pool = {"com", "COM", "example", "Example", "www",
                                   "a", "b", "*", "org", "net"};
  for (int i = 0; i < 20; ++i) pool.push_back(RandomLabel(rng, {"x"}));
  return pool;
}

// ---- The inline/heap boundary: wire forms of up to 23 octets (root
// octet included) are kept inside the Name, longer ones on the heap. ----

// Labels whose wire form, root octet included, is `wire_length` octets.
std::vector<std::string> LabelsOfWireLength(size_t wire_length, char fill) {
  std::vector<std::string> labels;
  size_t left = wire_length - 1;  // octets of length-prefixed labels
  while (left > 0) {
    size_t len = std::min<size_t>(kMaxLabelLength, left - 1);
    if (left - 1 - len == 1) --len;  // never leave one octet over
    labels.emplace_back(len, fill);
    left -= 1 + len;
  }
  return labels;
}

Name NameOfWireLength(size_t wire_length, char fill) {
  return *Name::FromLabels(LabelsOfWireLength(wire_length, fill));
}

TEST(NameOracle, WireLengthsAroundTheInlineLimit) {
  for (size_t length : {1, 3, 22, 23, 24, 25, 254, 255}) {
    std::vector<std::string> labels = LabelsOfWireLength(length, 'K');
    auto mine = Name::FromLabels(labels);
    ASSERT_TRUE(mine.ok()) << length;
    ASSERT_EQ(mine->WireLength(), length);
    ASSERT_EQ(mine->wire().size(), length);
    EXPECT_EQ(mine->wire().back(), 0) << length;
    ExpectSameName(*mine, *RefName::FromLabels(labels));
    if (HasFatalFailure()) return;
    auto parsed = Name::Parse(mine->ToString());
    ASSERT_TRUE(parsed.ok()) << length;
    EXPECT_EQ(Bytes(parsed->wire().begin(), parsed->wire().end()),
              Bytes(mine->wire().begin(), mine->wire().end()));
    auto from_wire = Name::FromWire(mine->wire());
    ASSERT_TRUE(from_wire.ok()) << length;
    EXPECT_EQ(*from_wire, *mine);
  }
  // One octet past the limit fails the same way on every path.
  std::vector<std::string> too_long = LabelsOfWireLength(255, 'K');
  too_long.back().push_back('K');
  EXPECT_FALSE(Name::FromLabels(too_long).ok());
  EXPECT_FALSE(RefName::FromLabels(too_long).ok());
  std::string text;
  for (const std::string& label : too_long) text += label + ".";
  ExpectSameOutcome(Name::Parse(text), RefName::Parse(text), text);
}

TEST(NameOracle, DefaultNameIsTheRoot) {
  Name root;
  EXPECT_TRUE(root.IsRoot());
  EXPECT_EQ(root.ToString(), ".");
  ASSERT_EQ(root.wire().size(), 1u);
  EXPECT_EQ(root.wire()[0], 0);
  EXPECT_EQ(root, Name::Root());
}

// Copies and moves in every direction between an inline name (22 and 23
// octets) and a heap name (24 and 25 octets): the target ends up equal to
// the source's old value, the source of a copy is untouched, and a
// moved-from name is a usable root. Under ASan this also checks that no
// buffer leaks or is freed twice.
TEST(NameOracle, CopyAndMoveAcrossTheInlineLimit) {
  const std::vector<Name> samples = {
      NameOfWireLength(1, 'r'),  NameOfWireLength(22, 'a'),
      NameOfWireLength(23, 'b'), NameOfWireLength(24, 'c'),
      NameOfWireLength(25, 'd'), NameOfWireLength(255, 'e')};
  auto same_bytes = [](const Name& a, const Name& b) {
    return std::equal(a.wire().begin(), a.wire().end(), b.wire().begin(),
                      b.wire().end());
  };
  for (const Name& from : samples) {
    Name copied(from);
    EXPECT_TRUE(same_bytes(copied, from)) << from.ToString();
    Name source(from);
    Name moved(std::move(source));
    EXPECT_TRUE(same_bytes(moved, from)) << from.ToString();
    EXPECT_TRUE(source.IsRoot());  // NOLINT(bugprone-use-after-move)
    source = from;                 // a moved-from name is reusable
    EXPECT_TRUE(same_bytes(source, from)) << from.ToString();

    for (const Name& to : samples) {
      std::string what = to.ToString() + " <- " + from.ToString();
      Name target(to);
      target = from;
      EXPECT_TRUE(same_bytes(target, from)) << what;
      EXPECT_TRUE(same_bytes(copied, from)) << what;

      Name move_target(to);
      Name move_source(from);
      move_target = std::move(move_source);
      EXPECT_TRUE(same_bytes(move_target, from)) << what;
      EXPECT_TRUE(move_source.IsRoot()) << what;  // NOLINT
      move_source = to;
      EXPECT_TRUE(same_bytes(move_source, to)) << what;
      move_source = std::move(move_target);
      EXPECT_TRUE(same_bytes(move_source, from)) << what;
      if (from.WireLength() + 2 <= kMaxNameWireLength) {
        move_target = *move_source.Child("x");
        EXPECT_EQ(move_target.Parent()->ToString(), from.ToString()) << what;
      }
    }

    Name self(from);
    Name& alias = self;
    self = alias;
    EXPECT_TRUE(same_bytes(self, from)) << from.ToString();
    self = std::move(alias);
    EXPECT_TRUE(same_bytes(self, from)) << from.ToString();
  }

  // Names in a growing vector move on every reallocation.
  std::vector<Name> grown;
  for (int i = 0; i < 100; ++i) grown.push_back(samples[i % samples.size()]);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(same_bytes(grown[i], samples[i % samples.size()])) << i;
  }
}

// Parent and Child cross the limit in both directions: a 24-octet heap
// name's parent is inline, and a 23-octet inline name's child is on the
// heap; wildcard siblings land on both sides as well.
TEST(NameOracle, ParentAndChildAcrossTheInlineLimit) {
  for (size_t length = 1; length <= 40; length += length == 1 ? 2 : 1) {
    std::vector<std::string> labels = LabelsOfWireLength(length, 'm');
    labels.insert(labels.begin(), "Z");  // a 2-octet leftmost label
    Name name = *Name::FromLabels(labels);
    RefName ref = *RefName::FromLabels(labels);
    ExpectSameName(name, ref);
    if (HasFatalFailure()) return;
    Name parent = *name.Parent();
    EXPECT_EQ(parent.WireLength(), name.WireLength() - 2);
    EXPECT_EQ(parent.ToString(), ref.Parent()->ToString());
    Name back = *parent.Child("Z");
    EXPECT_EQ(back, name);
    EXPECT_TRUE(std::equal(back.wire().begin(), back.wire().end(),
                           name.wire().begin(), name.wire().end()));
    for (size_t grow : {1, 5, 20}) {
      std::string label(grow, 'w');
      auto child = name.Child(label);
      ASSERT_TRUE(child.ok());
      EXPECT_EQ(child->WireLength(), name.WireLength() + 1 + grow);
      EXPECT_EQ(child->ToString(), ref.Child(label)->ToString());
      EXPECT_EQ(*child->Parent(), name);
      EXPECT_TRUE(child->IsSubdomainOf(name));
      EXPECT_FALSE(name.IsSubdomainOf(*child));
    }
  }
}

constexpr int kNames = 100000;

TEST(NameOracle, RandomNamesMatchTheLabelVectorReference) {
  Rng rng(0x6e616d65);
  std::vector<std::string> pool = LabelPool(rng);
  int valid = 0;
  int suffix_pairs = 0;
  int disguised_pairs = 0;
  for (int n = 0; n < kNames; ++n) {
    std::vector<std::string> labels = RandomLabels(rng, pool);
    auto mine = Name::FromLabels(labels);
    auto ref = RefName::FromLabels(labels);
    ExpectSameOutcome(mine, ref, "FromLabels #" + std::to_string(n));
    if (HasFatalFailure()) return;
    if (!mine.ok()) continue;
    ++valid;
    ExpectSameName(*mine, *ref);
    if (HasFatalFailure()) return;

    // Text round trip, then text with random edits.
    std::string text = ref->ToString();
    auto parsed = Name::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->ToString(), text);
    EXPECT_EQ(*parsed, *mine) << text;
    std::string edited = RandomText(rng, text);
    auto mine_parsed = Name::Parse(edited);
    auto ref_parsed = RefName::Parse(edited);
    ExpectSameOutcome(mine_parsed, ref_parsed, "Parse " + edited);
    if (HasFatalFailure()) return;
    if (mine_parsed.ok()) {
      ExpectSameName(*mine_parsed, *ref_parsed);
    }

    // Against a case-flipped copy, a suffix of it, and another name.
    auto flipped_labels = FlipCase(rng, labels);
    Name flipped = *Name::FromLabels(flipped_labels);
    RefName ref_flipped = *RefName::FromLabels(flipped_labels);
    ExpectSamePair(*mine, flipped, *ref, ref_flipped);
    if (!labels.empty()) {
      size_t keep = rng.NextBelow(labels.size() + 1);
      std::vector<std::string> tail(flipped_labels.end() - keep,
                                    flipped_labels.end());
      ExpectSamePair(*mine, *Name::FromLabels(tail), *ref,
                     *RefName::FromLabels(tail));
      ++suffix_pairs;
    }
    auto other_labels = RandomLabels(rng, pool);
    auto other = Name::FromLabels(other_labels);
    if (other.ok()) {
      ExpectSamePair(*mine, *other, *ref, *RefName::FromLabels(other_labels));
    }
    // One label whose octets end in this name's wire form: the tail
    // matches byte for byte but does not start on a label boundary.
    size_t labels_octets = mine->WireLength() - 1;
    if (!labels.empty() && labels_octets < kMaxLabelLength) {
      std::string disguised(1, RandomOctet(rng));
      disguised.append(reinterpret_cast<const char*>(mine->wire().data()),
                       labels_octets);
      std::vector<std::string> one = {disguised};
      ExpectSamePair(*Name::FromLabels(one), *mine, *RefName::FromLabels(one),
                     *ref);
      ++disguised_pairs;
    }
  }
  EXPECT_GT(valid, kNames / 2);
  EXPECT_GT(disguised_pairs, kNames / 4);
  EXPECT_GT(suffix_pairs, kNames / 2);
}

// Compression over random sequences of names that share labels, long
// enough that later suffixes sit past the 0x3fff pointer limit.
TEST(NameOracle, CompressorMatchesTheReference) {
  Rng rng(0x636f6d70);
  std::vector<std::string> pool = LabelPool(rng);
  int names = 0;
  for (int sequence = 0; sequence < 200; ++sequence) {
    NameCompressor compressor;
    RefCompressor ref_compressor;
    ByteWriter mine;
    ByteWriter ref;
    std::vector<std::string> texts;
    size_t count = sequence % 10 == 0 ? 1200 : 1 + rng.NextBelow(60);
    for (size_t i = 0; i < count; ++i) {
      std::vector<std::string> labels = RandomLabels(rng, pool);
      if (rng.NextBelow(2)) labels = FlipCase(rng, labels);
      auto name = Name::FromLabels(labels);
      if (!name.ok()) continue;
      compressor.Encode(*name, mine);
      RefName ref_name = *RefName::FromLabels(labels);
      ref_compressor.Encode(ref_name, ref);
      texts.push_back(ref_name.CanonicalKey());
      ++names;
    }
    ASSERT_EQ(mine.data(), ref.data()) << "sequence " << sequence;
    // The compressed names decode, through their pointers, to the same
    // names (a pointer's target keeps the case it was first written in).
    ByteReader reader(mine.data());
    for (const std::string& text : texts) {
      auto decoded = DecodeName(reader);
      ASSERT_TRUE(decoded.ok()) << text;
      ASSERT_EQ(decoded->CanonicalKey(), text);
    }
    EXPECT_TRUE(reader.AtEnd());
  }
  EXPECT_GT(names, 20000);
}

}  // namespace
}  // namespace ldp::dns
