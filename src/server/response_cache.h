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
//
// Layout: a slab of at most `capacity` entries, linked by index into an LRU
// list, behind an open-addressing index (linear probing, power-of-two
// size, at most half full) of slab positions. Each entry stores its key's
// hash, so a query is hashed once and an eviction finds its index bucket
// without rehashing; an evicted entry's question and answer buffers are
// reused by the entry that replaces it. Once the slab is full, a miss
// costs no heap allocation.
#ifndef LDPLAYER_SERVER_RESPONSE_CACHE_H
#define LDPLAYER_SERVER_RESPONSE_CACHE_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "dns/message.h"

namespace ldp::server {

struct ResponseCacheKey {
  // Identity of the matched split-horizon view (the ZoneSet pointer, stable
  // for the lifetime of the ViewTable). nullptr = no view matched.
  const void* view = nullptr;
  // Raw question section (qname, qtype, qclass), borrowed from the query;
  // the cache copies it when it stores an entry.
  std::span<const uint8_t> question;
  bool has_edns = false;
  bool do_bit = false;
  uint32_t advertised = 0;  // raw EDNS payload size (0 without EDNS)
  uint32_t limit = 0;       // effective encode limit (the size bucket)
};

// Capacity-bounded LRU map from key to encoded response. Not thread-safe:
// each server shard owns a private cache (no shared mutable hot state).
class ResponseCache {
 public:
  struct Entry {
    Bytes wire;             // encoded response; ID/RD bytes are stale
    dns::Rcode rcode = dns::Rcode::kNoError;  // for stats on hits
  };

  explicit ResponseCache(size_t capacity);

  // The key's hash; Lookup and Insert take it so a query is hashed once.
  static uint64_t Hash(const ResponseCacheKey& key);

  // Returns the entry (promoted to most-recently-used) or nullptr.
  const Entry* Lookup(const ResponseCacheKey& key, uint64_t hash);

  // Stores a copy of `wire` under `key`, or refreshes the entry already
  // there; evicts the least-recently-used entry when full.
  void Insert(const ResponseCacheKey& key, uint64_t hash,
              std::span<const uint8_t> wire, dns::Rcode rcode);

  size_t size() const { return slots_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t evictions() const { return evictions_; }

  // Copies a cached wire response and patches the query-dependent bytes:
  // the 16-bit message ID and the RD flag (low bit of the flags byte).
  static Bytes PatchedCopy(const Bytes& wire, uint16_t id, bool rd);

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Slot {
    // The key, its question owned.
    const void* view = nullptr;
    Bytes question;
    bool has_edns = false;
    bool do_bit = false;
    uint32_t advertised = 0;
    uint32_t limit = 0;
    uint64_t hash = 0;
    Entry entry;
    uint32_t prev = kNil;  // toward the most recently used
    uint32_t next = kNil;  // toward the least recently used
  };

  bool Matches(const Slot& slot, const ResponseCacheKey& key,
               uint64_t hash) const;
  // The index bucket holding `key`, or the empty bucket ending its probe.
  size_t Probe(const ResponseCacheKey& key, uint64_t hash) const;
  // Empties the bucket of `slot` and shifts later probes back over it.
  void RemoveFromIndex(uint32_t slot);
  void Unlink(uint32_t slot);
  void PushFront(uint32_t slot);

  size_t capacity_;
  uint64_t evictions_ = 0;
  std::vector<Slot> slots_;      // grows to capacity_, then recycles
  std::vector<uint32_t> index_;  // slab positions; kNil = empty bucket
  size_t mask_ = 0;              // index_.size() - 1
  uint32_t head_ = kNil;         // most recently used
  uint32_t tail_ = kNil;         // least recently used
};

}  // namespace ldp::server

#endif  // LDPLAYER_SERVER_RESPONSE_CACHE_H
