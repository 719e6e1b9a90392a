#include <gtest/gtest.h>

#include "dns/name.h"

namespace ldp::dns {
namespace {

TEST(Name, ParseBasics) {
  auto name = Name::Parse("www.Example.COM");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->label_count(), 3u);
  EXPECT_EQ(name->ToString(), "www.Example.COM.");
  EXPECT_FALSE(name->IsRoot());
}

TEST(Name, ParseRoot) {
  auto root = Name::Parse(".");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->IsRoot());
  EXPECT_EQ(root->ToString(), ".");
  EXPECT_EQ(root->WireLength(), 1u);
}

TEST(Name, TrailingDotOptional) {
  EXPECT_EQ(Name::Parse("a.b.")->ToString(), Name::Parse("a.b")->ToString());
}

TEST(Name, ParseRejectsBadInput) {
  EXPECT_FALSE(Name::Parse("").ok());
  EXPECT_FALSE(Name::Parse("a..b").ok());
  EXPECT_FALSE(Name::Parse(std::string(64, 'a') + ".com").ok());
  // > 255 octets total.
  std::string long_name;
  for (int i = 0; i < 50; ++i) long_name += "abcdef.";
  EXPECT_FALSE(Name::Parse(long_name).ok());
}

TEST(Name, Escapes) {
  auto name = Name::Parse("a\\.b.example");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->label_count(), 2u);
  EXPECT_EQ(name->labels()[0], "a.b");
  EXPECT_EQ(name->ToString(), "a\\.b.example.");

  auto ddd = Name::Parse("a\\032b.example");
  ASSERT_TRUE(ddd.ok());
  EXPECT_EQ(ddd->labels()[0], "a b");

  EXPECT_FALSE(Name::Parse("a\\").ok());
  EXPECT_FALSE(Name::Parse("a\\999b").ok());
}

TEST(Name, CaseInsensitiveEquality) {
  EXPECT_EQ(*Name::Parse("WWW.EXAMPLE.COM"), *Name::Parse("www.example.com"));
  EXPECT_NE(*Name::Parse("www.example.com"), *Name::Parse("example.com"));
  EXPECT_EQ(Name::Parse("WWW.EXAMPLE.COM")->Hash(),
            Name::Parse("www.example.com")->Hash());
}

TEST(Name, ParentChild) {
  auto name = *Name::Parse("www.example.com");
  auto parent = name.Parent();
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ(parent->ToString(), "example.com.");
  EXPECT_FALSE(Name::Root().Parent().ok());

  auto child = parent->Child("mail");
  ASSERT_TRUE(child.ok());
  EXPECT_EQ(child->ToString(), "mail.example.com.");
}

TEST(Name, Subdomain) {
  auto com = *Name::Parse("com");
  auto example = *Name::Parse("example.com");
  auto www = *Name::Parse("www.example.com");
  EXPECT_TRUE(www.IsSubdomainOf(example));
  EXPECT_TRUE(www.IsSubdomainOf(com));
  EXPECT_TRUE(www.IsSubdomainOf(Name::Root()));
  EXPECT_TRUE(example.IsSubdomainOf(example));
  EXPECT_FALSE(example.IsSubdomainOf(www));
  EXPECT_FALSE((*Name::Parse("notexample.com")).IsSubdomainOf(example));
}

TEST(Name, Wildcard) {
  auto wc = *Name::Parse("*.example.com");
  EXPECT_TRUE(wc.IsWildcard());
  EXPECT_FALSE(Name::Parse("www.example.com")->IsWildcard());

  auto sibling = Name::Parse("a.b.example.com")->AsWildcardSibling();
  ASSERT_TRUE(sibling.ok());
  EXPECT_EQ(sibling->ToString(), "*.b.example.com.");
  EXPECT_FALSE(Name::Root().AsWildcardSibling().ok());
}

TEST(Name, CanonicalOrdering) {
  // RFC 4034 §6.1 example order.
  auto a = *Name::Parse("example.com");
  auto b = *Name::Parse("a.example.com");
  auto c = *Name::Parse("yljkjljk.a.example.com");
  auto d = *Name::Parse("z.a.example.com");
  auto e = *Name::Parse("zabc.a.example.com");
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
  EXPECT_LT(d, e);
  EXPECT_FALSE(b < a);
}

TEST(NameWire, EncodeDecodeUncompressed) {
  auto name = *Name::Parse("www.example.com");
  ByteWriter w;
  EncodeNameUncompressed(name, w);
  EXPECT_EQ(w.size(), name.WireLength());

  ByteReader r(w.data());
  auto decoded = DecodeName(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, name);
  EXPECT_TRUE(r.AtEnd());
}

TEST(NameWire, CompressionSharesSuffix) {
  NameCompressor compressor;
  ByteWriter w;
  auto first = *Name::Parse("www.example.com");
  auto second = *Name::Parse("mail.example.com");
  compressor.Encode(first, w);
  size_t first_len = w.size();
  compressor.Encode(second, w);
  // "mail" label (5 bytes) + 2-byte pointer instead of full encoding.
  EXPECT_EQ(w.size() - first_len, 5u + 2u);

  ByteReader r(w.data());
  EXPECT_EQ(*DecodeName(r), first);
  EXPECT_EQ(*DecodeName(r), second);
}

TEST(NameWire, CompressionIsCaseInsensitive) {
  NameCompressor compressor;
  ByteWriter w;
  compressor.Encode(*Name::Parse("www.EXAMPLE.com"), w);
  size_t first_len = w.size();
  compressor.Encode(*Name::Parse("example.COM"), w);
  EXPECT_EQ(w.size() - first_len, 2u);  // pure pointer
}

TEST(NameWire, CompressionKeysOnLabelsNotText) {
  // One label "a.b" and the two labels "a", "b" print alike but are
  // different names: the second must not point at the first.
  NameCompressor compressor;
  ByteWriter w;
  Name dotted = *Name::FromLabels({"a.b", "example"});
  Name split = *Name::Parse("a.b.example");
  compressor.Encode(dotted, w);
  size_t first_len = w.size();
  compressor.Encode(split, w);
  // "a" and "b" written out, then a pointer to the shared "example".
  EXPECT_EQ(w.size() - first_len, 2u + 2u + 2u);

  ByteReader r(w.data());
  EXPECT_EQ(*DecodeName(r), dotted);
  EXPECT_EQ(*DecodeName(r), split);
}

TEST(NameWire, DecodeRejectsPointerLoop) {
  // A pointer pointing at itself.
  Bytes evil{0xc0, 0x00};
  ByteReader r(evil);
  EXPECT_FALSE(DecodeName(r).ok());
}

TEST(NameWire, DecodeRejectsForwardPointer) {
  Bytes evil{0xc0, 0x04, 0x00, 0x00, 0x01, 'a', 0x00};
  ByteReader r(evil);
  EXPECT_FALSE(DecodeName(r).ok());
}

TEST(NameWire, DecodeRejectsReservedLabelType) {
  Bytes evil{0x80, 0x01, 0x00};
  ByteReader r(evil);
  EXPECT_FALSE(DecodeName(r).ok());
}

TEST(NameWire, DecodeTruncated) {
  Bytes partial{0x03, 'w', 'w'};
  ByteReader r(partial);
  EXPECT_FALSE(DecodeName(r).ok());
}

TEST(NameWire, PointerChainDecodes) {
  // "example.com" at offset 0; "www" + pointer at offset 13;
  // pointer-only name at offset 18 pointing at the www name.
  ByteWriter w;
  NameCompressor compressor;
  compressor.Encode(*Name::Parse("example.com"), w);
  size_t www_offset = w.size();
  compressor.Encode(*Name::Parse("www.example.com"), w);
  w.WriteU16(static_cast<uint16_t>(0xc000 | www_offset));

  ByteReader r(w.data());
  ASSERT_TRUE(r.Seek(w.size() - 2).ok());
  auto name = DecodeName(r);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->ToString(), "www.example.com.");
  EXPECT_TRUE(r.AtEnd());
}

TEST(NameWire, CursorAdvancesPastPointer) {
  ByteWriter w;
  NameCompressor compressor;
  compressor.Encode(*Name::Parse("example.com"), w);
  size_t start = w.size();
  compressor.Encode(*Name::Parse("example.com"), w);  // emits 2-byte pointer
  w.WriteU8(0xaa);  // sentinel after the pointer

  ByteReader r(w.data());
  ASSERT_TRUE(r.Seek(start).ok());
  ASSERT_TRUE(DecodeName(r).ok());
  EXPECT_EQ(r.ReadU8().value(), 0xaa);
}

// Labels containing master-file structural characters must escape them in
// presentation form and round-trip through Parse (fuzz_zone regression:
// a bare leading '$' reparsed as a directive).
TEST(NameEscaping, StructuralCharactersRoundTrip) {
  for (const char* raw : {"$", "@", "a b", "a;b", "(x)", "a$b"}) {
    Name name = *Name::FromLabels({raw, "example"});
    std::string text = name.ToString();
    // No raw structural characters may survive in the rendering.
    EXPECT_EQ(text.find(' '), std::string::npos) << text;
    EXPECT_EQ(text.find(';'), std::string::npos) << text;
    EXPECT_EQ(text.find('('), std::string::npos) << text;
    EXPECT_EQ(text.find(')'), std::string::npos) << text;
    EXPECT_NE(text[0], '$') << text;
    auto reparsed = Name::Parse(text);
    ASSERT_TRUE(reparsed.ok()) << text;
    EXPECT_EQ(*reparsed, name) << text;
  }
}

}  // namespace
}  // namespace ldp::dns
