// Sticky client→downstream assignment helpers shared by the in-process
// Postman (replay/sticky.h) and the distributed controller (distrib/).
//
// Two pieces:
//  - StickyAssign: the memoization that makes any picker "sticky" — the
//    first query from a source consults the picker, every later query
//    reuses the stored choice. Paper §2.6: all queries from one original
//    source must land on the same downstream entity.
//  - HashRing: a consistent-hash picker over explicit node ids. Unlike the
//    seeded-random picker, its choice for a source depends only on the
//    node set, so when an agent fails AT CONNECT TIME and is dropped from
//    the ring, only the dead agent's sources move — every surviving
//    agent keeps exactly the clients it would have had. (Mid-run death is
//    never rebalanced; see distrib/controller.h.)
#ifndef LDPLAYER_REPLAY_HASHRING_H
#define LDPLAYER_REPLAY_HASHRING_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ip.h"

namespace ldp::replay {

// First sight of `source` consults picker(source); afterwards the table
// answers. Extracted from StickyAssigner so ring- and random-based
// assigners share the one memoization.
template <typename Picker>
size_t StickyAssign(std::unordered_map<IpAddress, size_t>& table,
                    IpAddress source, Picker&& picker) {
  // try_emplace, not emplace: emplace allocates a node before it looks.
  auto [it, inserted] = table.try_emplace(source, 0);
  if (inserted) it->second = picker(source);
  return it->second;
}

// splitmix64 finalizer: a fixed, platform-independent 64-bit mix so ring
// positions (and therefore assignments) are reproducible everywhere.
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Consistent-hash ring: each node contributes `vnodes` points; a source
// maps to the owner of the first point at or after its own hash (wrapping).
// Removing a node reassigns only the sources whose owning point belonged
// to it — ~1/n of the keyspace — which is the connect-time-failure
// property hashring_test locks in.
class HashRing {
 public:
  explicit HashRing(size_t vnodes_per_node = 64, uint64_t seed = 0)
      : vnodes_(vnodes_per_node == 0 ? 1 : vnodes_per_node), seed_(seed) {}

  void AddNode(uint32_t node_id) {
    for (size_t replica = 0; replica < vnodes_; ++replica) {
      uint64_t point = Mix64(seed_ ^ (uint64_t{node_id} << 20) ^ replica);
      ring_.emplace_back(point, node_id);
    }
    std::sort(ring_.begin(), ring_.end());
  }

  void RemoveNode(uint32_t node_id) {
    ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                               [node_id](const auto& p) {
                                 return p.second == node_id;
                               }),
                ring_.end());
  }

  // Owning node for `source`; nullopt on an empty ring.
  std::optional<uint32_t> NodeFor(IpAddress source) const {
    if (ring_.empty()) return std::nullopt;
    uint64_t h = Mix64(seed_ ^ source.value());
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), h,
        [](const auto& p, uint64_t value) { return p.first < value; });
    if (it == ring_.end()) it = ring_.begin();  // wrap
    return it->second;
  }

  bool empty() const { return ring_.empty(); }
  size_t point_count() const { return ring_.size(); }

 private:
  size_t vnodes_;
  uint64_t seed_;
  std::vector<std::pair<uint64_t, uint32_t>> ring_;  // sorted by point
};

}  // namespace ldp::replay

#endif  // LDPLAYER_REPLAY_HASHRING_H
