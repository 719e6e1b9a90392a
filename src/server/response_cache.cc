#include "server/response_cache.h"

namespace ldp::server {

const ResponseCache::Entry* ResponseCache::Lookup(
    const ResponseCacheKey& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  return &it->second->second;
}

void ResponseCache::Insert(ResponseCacheKey key, Bytes wire,
                           dns::Rcode rcode) {
  if (capacity_ == 0) return;
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = Entry{std::move(wire), rcode};
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.emplace_front(std::move(key), Entry{std::move(wire), rcode});
  map_.emplace(lru_.front().first, lru_.begin());
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
