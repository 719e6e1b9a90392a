#include "server/response_cache.h"

#include <algorithm>
#include <bit>

namespace ldp::server {

ResponseCache::ResponseCache(size_t capacity)
    // Slab positions are 32-bit; no shard caches anywhere near 2^30.
    : capacity_(std::min<size_t>(capacity, size_t{1} << 30)) {
  if (capacity_ == 0) return;
  index_.assign(std::bit_ceil(capacity_ * 2), kNil);
  mask_ = index_.size() - 1;
}

uint64_t ResponseCache::Hash(const ResponseCacheKey& key) {
  // FNV-1a over the question bytes, then mix in the scalar fields.
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t byte : key.question) {
    h = (h ^ byte) * 0x100000001b3ull;
  }
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(reinterpret_cast<uintptr_t>(key.view));
  mix((static_cast<uint64_t>(key.has_edns) << 1) |
      static_cast<uint64_t>(key.do_bit));
  mix((static_cast<uint64_t>(key.advertised) << 32) | key.limit);
  return h;
}

bool ResponseCache::Matches(const Slot& slot, const ResponseCacheKey& key,
                            uint64_t hash) const {
  return slot.hash == hash && slot.view == key.view &&
         slot.has_edns == key.has_edns && slot.do_bit == key.do_bit &&
         slot.advertised == key.advertised && slot.limit == key.limit &&
         std::equal(slot.question.begin(), slot.question.end(),
                    key.question.begin(), key.question.end());
}

size_t ResponseCache::Probe(const ResponseCacheKey& key,
                            uint64_t hash) const {
  size_t bucket = hash & mask_;
  while (index_[bucket] != kNil &&
         !Matches(slots_[index_[bucket]], key, hash)) {
    bucket = (bucket + 1) & mask_;
  }
  return bucket;
}

const ResponseCache::Entry* ResponseCache::Lookup(const ResponseCacheKey& key,
                                                  uint64_t hash) {
  if (capacity_ == 0) return nullptr;
  const uint32_t slot = index_[Probe(key, hash)];
  if (slot == kNil) return nullptr;
  Unlink(slot);
  PushFront(slot);  // promote to MRU
  return &slots_[slot].entry;
}

void ResponseCache::Insert(const ResponseCacheKey& key, uint64_t hash,
                           std::span<const uint8_t> wire, dns::Rcode rcode) {
  if (capacity_ == 0) return;
  size_t bucket = Probe(key, hash);
  uint32_t slot = index_[bucket];
  if (slot != kNil) {  // refresh
    slots_[slot].entry.wire.assign(wire.begin(), wire.end());
    slots_[slot].entry.rcode = rcode;
    Unlink(slot);
    PushFront(slot);
    return;
  }
  if (slots_.size() < capacity_) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    // Full: the least recently used entry makes room and lends its slot.
    slot = tail_;
    RemoveFromIndex(slot);
    Unlink(slot);
    ++evictions_;
    bucket = Probe(key, hash);  // the removal may have shifted the probe
  }
  Slot& entry = slots_[slot];
  entry.view = key.view;
  entry.question.assign(key.question.begin(), key.question.end());
  entry.has_edns = key.has_edns;
  entry.do_bit = key.do_bit;
  entry.advertised = key.advertised;
  entry.limit = key.limit;
  entry.hash = hash;
  entry.entry.wire.assign(wire.begin(), wire.end());
  entry.entry.rcode = rcode;
  index_[bucket] = slot;
  PushFront(slot);
}

void ResponseCache::RemoveFromIndex(uint32_t slot) {
  size_t hole = slots_[slot].hash & mask_;
  while (index_[hole] != slot) hole = (hole + 1) & mask_;
  // Backward-shift deletion: a later entry of the probe run moves into the
  // hole unless its home bucket lies after the hole (cyclically), which
  // keeps every entry reachable from its home with no tombstones.
  for (size_t next = (hole + 1) & mask_; index_[next] != kNil;
       next = (next + 1) & mask_) {
    const size_t home = slots_[index_[next]].hash & mask_;
    if (((next - home) & mask_) >= ((next - hole) & mask_)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = kNil;
}

void ResponseCache::Unlink(uint32_t slot) {
  Slot& entry = slots_[slot];
  if (entry.prev != kNil) {
    slots_[entry.prev].next = entry.next;
  } else {
    head_ = entry.next;
  }
  if (entry.next != kNil) {
    slots_[entry.next].prev = entry.prev;
  } else {
    tail_ = entry.prev;
  }
  entry.prev = entry.next = kNil;
}

void ResponseCache::PushFront(uint32_t slot) {
  Slot& entry = slots_[slot];
  entry.prev = kNil;
  entry.next = head_;
  if (head_ != kNil) slots_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNil) tail_ = slot;
}

Bytes ResponseCache::PatchedCopy(const Bytes& wire, uint16_t id, bool rd) {
  Bytes copy = wire;
  if (copy.size() >= 4) {
    copy[0] = static_cast<uint8_t>(id >> 8);
    copy[1] = static_cast<uint8_t>(id & 0xff);
    copy[2] = static_cast<uint8_t>((copy[2] & ~0x01) | (rd ? 0x01 : 0x00));
  }
  return copy;
}

}  // namespace ldp::server
