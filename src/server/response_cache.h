// Wire-level response cache for the authoritative engine: repeat queries
// skip zone lookup, message encoding, AND query decoding entirely. An entry
// stores the fully encoded response; a hit copies the buffer and patches
// the two query-dependent bytes (message ID, RD flag) into the copy. The
// query side never becomes a dns::Message either — dns::ParseWireQuery
// (dns/wire.h) pulls the handful of fields the key needs straight from the
// wire bytes.
//
// Keying has to cover everything else the encoded response depends on
// (see zone::BuildResponse): the split-horizon view matched by the query
// source, the raw question-section bytes (qname with the client's exact
// case — responses echo the question verbatim, so 0x20-style case mixing
// yields distinct entries — plus qtype and qclass), whether the query
// carried EDNS, the DO bit, and the effective size limit the response was
// encoded under. The advertised EDNS payload size is part of the key
// because the REFUSED path echoes it back verbatim.
//
// Anything shaped unusually — multiple questions, non-empty answer or
// authority sections, compression in the question, a non-OPT additional,
// EDNS version != 0, trailing bytes — fails the wire parse and takes the
// full decode path uncached, so the cache only ever sees queries whose
// response is a pure function of the key.
//
// Truncated responses (TC set) are never stored: whether a response
// truncates — and which records survive — depends on the exact limit, and
// a TC answer only tells the client to retry over TCP anyway, so caching
// it would trade correctness-sensitive bytes for nothing.
#ifndef LDPLAYER_SERVER_RESPONSE_CACHE_H
#define LDPLAYER_SERVER_RESPONSE_CACHE_H

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/bytes.h"
#include "dns/message.h"

namespace ldp::server {

struct ResponseCacheKey {
  // Identity of the matched split-horizon view (the ZoneSet pointer, stable
  // for the lifetime of the ViewTable). nullptr = no view matched.
  const void* view = nullptr;
  Bytes question;           // raw question section (qname, qtype, qclass)
  bool has_edns = false;
  bool do_bit = false;
  uint32_t advertised = 0;  // raw EDNS payload size (0 without EDNS)
  uint32_t limit = 0;       // effective encode limit (the size bucket)

  bool operator==(const ResponseCacheKey&) const = default;
};

struct ResponseCacheKeyHash {
  size_t operator()(const ResponseCacheKey& key) const {
    // FNV-1a over the question bytes, then mix in the scalar fields.
    size_t h = 0xcbf29ce484222325ull;
    for (uint8_t byte : key.question) {
      h = (h ^ byte) * 0x100000001b3ull;
    }
    auto mix = [&h](size_t v) {
      h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(reinterpret_cast<size_t>(key.view));
    mix((static_cast<size_t>(key.has_edns) << 1) |
        static_cast<size_t>(key.do_bit));
    mix((static_cast<size_t>(key.advertised) << 32) | key.limit);
    return h;
  }
};

// Capacity-bounded LRU map from key to encoded response. Not thread-safe:
// each server shard owns a private cache (no shared mutable hot state).
class ResponseCache {
 public:
  struct Entry {
    Bytes wire;             // encoded response; ID/RD bytes are stale
    dns::Rcode rcode;       // for stats accounting on hits
  };

  explicit ResponseCache(size_t capacity) : capacity_(capacity) {}

  // Returns the entry (promoted to most-recently-used) or nullptr.
  const Entry* Lookup(const ResponseCacheKey& key);

  // Inserts or refreshes; evicts the least-recently-used entry when full.
  void Insert(ResponseCacheKey key, Bytes wire, dns::Rcode rcode);

  size_t size() const { return map_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t evictions() const { return evictions_; }

  // Copies a cached wire response and patches the query-dependent bytes:
  // the 16-bit message ID and the RD flag (low bit of the flags byte).
  static Bytes PatchedCopy(const Bytes& wire, uint16_t id, bool rd);

 private:
  using LruList = std::list<std::pair<ResponseCacheKey, Entry>>;

  size_t capacity_;
  uint64_t evictions_ = 0;
  LruList lru_;  // front = most recently used
  std::unordered_map<ResponseCacheKey, LruList::iterator,
                     ResponseCacheKeyHash>
      map_;
};

}  // namespace ldp::server

#endif  // LDPLAYER_SERVER_RESPONSE_CACHE_H
