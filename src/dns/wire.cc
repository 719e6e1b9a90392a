#include "dns/wire.h"

#include <algorithm>
#include <cstring>

namespace ldp::dns {
namespace {

// ASCII case folding, the same folding Name uses to compare (A-Z only).
uint8_t FoldByte(uint8_t c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<uint8_t>(c + ('a' - 'A')) : c;
}

uint16_t U16(const uint8_t* p) {
  return static_cast<uint16_t>((p[0] << 8) | p[1]);
}

// Seed of the root suffix; each label extends its parent's hash (FNV-1a
// over the folded label octets), so a name's suffix hashes are computed in
// one right-to-left pass.
constexpr uint64_t kRootHash = 0xcbf29ce484222325ull;

// Reads the (possibly compressed) name at *offset into `folded` as its
// lowercased uncompressed wire form, advancing *offset past the name as it
// appears in the message. Returns the wire length, or 0 if malformed.
size_t ReadFoldedName(std::span<const uint8_t> msg, size_t* offset,
                      uint8_t* folded) {
  size_t pos = *offset;
  size_t len = 0;
  bool jumped = false;
  for (int hops = 0; hops <= 64;) {
    if (pos >= msg.size()) return 0;
    uint8_t label = msg[pos];
    if ((label & 0xc0) == 0xc0) {
      if (pos + 1 >= msg.size()) return 0;
      size_t target = (static_cast<size_t>(label & 0x3f) << 8) | msg[pos + 1];
      if (target >= pos) return 0;  // pointers only point backwards
      if (!jumped) *offset = pos + 2;
      jumped = true;
      pos = target;
      ++hops;
      continue;
    }
    if (label & 0xc0) return 0;
    if (len + 1 + label > kMaxNameWireLength) return 0;
    if (pos + 1 + label > msg.size()) return 0;
    folded[len++] = label;
    for (size_t i = 1; i <= label; ++i) folded[len++] = FoldByte(msg[pos + i]);
    pos += 1 + label;
    if (label == 0) {
      if (!jumped) *offset = pos;
      return len;
    }
  }
  return 0;
}

}  // namespace

bool ParseWireQuery(std::span<const uint8_t> wire, WireQueryInfo* out) {
  if (wire.size() < 12) return false;
  const uint8_t* p = wire.data();

  uint8_t flags_hi = p[2];
  if (flags_hi & 0x80) return false;         // QR set: not a query
  if ((flags_hi >> 3) & 0x0f) return false;  // opcode != QUERY
  if (U16(p + 4) != 1 || U16(p + 6) != 0 || U16(p + 8) != 0) return false;
  uint16_t arcount = U16(p + 10);
  if (arcount > 1) return false;

  // Walk the qname: plain labels only, inside the RFC 1035 length cap.
  size_t off = 12;
  size_t name_len = 0;
  while (true) {
    if (off >= wire.size()) return false;
    uint8_t len = p[off];
    if (len == 0) {
      ++off;
      break;
    }
    if (len & 0xc0) return false;  // compression / extended label
    name_len += len + 1;
    if (name_len > 254) return false;
    off += 1 + static_cast<size_t>(len);
  }
  if (off + 4 > wire.size()) return false;
  out->qtype = U16(p + off);
  out->question = wire.subspan(12, off + 4 - 12);
  out->qname = wire.subspan(12, off - 12);
  off += 4;

  out->id = U16(p);
  out->rd = flags_hi & 0x01;
  out->has_edns = arcount == 1;
  out->do_bit = false;
  out->advertised = 0;
  if (arcount == 1) {
    // The one additional must be a well-formed OPT pseudo-record:
    // root owner name, TYPE 41, class = advertised payload size,
    // TTL = extended-rcode(0) | version(0) | flags.
    if (off + 11 > wire.size()) return false;
    if (p[off] != 0) return false;
    if (U16(p + off + 1) != 41) return false;
    out->advertised = U16(p + off + 3);
    if (p[off + 5] != 0 || p[off + 6] != 0) return false;
    out->do_bit = p[off + 7] & 0x80;
    uint16_t rdlen = U16(p + off + 9);
    off += 11 + static_cast<size_t>(rdlen);
    if (off > wire.size()) return false;
  }
  return off == wire.size();  // trailing bytes: take the slow path
}

bool SameFirstQuestion(std::span<const uint8_t> reply,
                       std::span<const uint8_t> query) {
  if (reply.size() < 12 || query.size() < 12) return false;
  if (U16(reply.data() + 4) == 0 || U16(query.data() + 4) == 0) return false;
  uint8_t reply_name[kMaxNameWireLength];
  uint8_t query_name[kMaxNameWireLength];
  size_t reply_off = 12;
  size_t query_off = 12;
  size_t reply_len = ReadFoldedName(reply, &reply_off, reply_name);
  size_t query_len = ReadFoldedName(query, &query_off, query_name);
  if (reply_len == 0 || reply_len != query_len) return false;
  if (reply_off + 4 > reply.size() || query_off + 4 > query.size()) {
    return false;
  }
  return std::memcmp(reply_name, query_name, reply_len) == 0 &&
         std::memcmp(reply.data() + reply_off, query.data() + query_off, 4) ==
             0;
}

bool WireNameView::SuffixIs(size_t i, const WireNameView& other) const {
  size_t n = SuffixLength(i);
  return n == other.len && hashes[i] == other.hashes[0] &&
         std::memcmp(SuffixFolded(i), other.folded, n) == 0;
}

size_t IndexWireName(std::span<const uint8_t> wire, uint8_t* folded,
                     uint8_t* offsets, uint64_t* hashes) {
  size_t labels = 0;
  size_t pos = 0;
  while (wire[pos] != 0) {
    offsets[labels++] = static_cast<uint8_t>(pos);
    pos += 1 + wire[pos];
  }
  offsets[labels] = static_cast<uint8_t>(pos);
  for (size_t i = 0; i < wire.size(); ++i) folded[i] = FoldByte(wire[i]);
  hashes[labels] = kRootHash;
  for (size_t i = labels; i-- > 0;) {
    uint64_t h = hashes[i + 1];
    for (size_t j = offsets[i]; j < offsets[i + 1]; ++j) {
      h = (h ^ folded[j]) * 0x100000001b3ull;
    }
    hashes[i] = h;
  }
  return labels;
}

const WireNameView& IndexedWireName::Index(std::span<const uint8_t> wire) {
  view_.wire = wire.data();
  view_.folded = folded_;
  view_.offsets = offsets_;
  view_.hashes = hashes_;
  view_.len = static_cast<uint16_t>(wire.size());
  view_.labels =
      static_cast<uint16_t>(IndexWireName(wire, folded_, offsets_, hashes_));
  return view_;
}

int CanonicalCompare(const WireNameView& a, const WireNameView& b) {
  size_t n = std::min(a.labels, b.labels);
  for (size_t k = 1; k <= n; ++k) {
    const uint8_t* la = a.folded + a.offsets[a.labels - k];
    const uint8_t* lb = b.folded + b.offsets[b.labels - k];
    size_t common = std::min(la[0], lb[0]);
    int cmp = std::memcmp(la + 1, lb + 1, common);
    if (cmp != 0) return cmp;
    if (la[0] != lb[0]) return la[0] < lb[0] ? -1 : 1;
  }
  if (a.labels == b.labels) return 0;
  return a.labels < b.labels ? -1 : 1;
}

size_t WireCompressor::Write(const WireNameView& name, uint8_t* out,
                             size_t pos) {
  for (size_t i = 0; i < name.labels; ++i) {
    uint64_t hash = name.hashes[i];
    size_t len = name.SuffixLength(i);
    const uint8_t* folded = name.SuffixFolded(i);
    for (const Entry& entry : entries_) {
      if (entry.hash == hash && entry.len == len &&
          std::memcmp(entry.folded, folded, len) == 0) {
        out[pos] = static_cast<uint8_t>(0xc0 | (entry.offset >> 8));
        out[pos + 1] = static_cast<uint8_t>(entry.offset & 0xff);
        return pos + 2;
      }
    }
    if (pos <= 0x3fff) {
      entries_.push_back(Entry{hash, folded, static_cast<uint16_t>(len),
                               static_cast<uint16_t>(pos)});
    }
    size_t label_len = 1 + name.wire[name.offsets[i]];
    std::memcpy(out + pos, name.wire + name.offsets[i], label_len);
    pos += label_len;
  }
  out[pos] = 0;
  return pos + 1;
}

}  // namespace ldp::dns
