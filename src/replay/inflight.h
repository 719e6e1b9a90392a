// Inflight bookkeeping for the realtime querier (replay/realtime.cc),
// shaped so that a query in steady state costs no heap allocation:
//
//   - AllocateQueryId picks a free 16-bit DNS ID;
//   - InflightTable holds the UDP queries awaiting a reply, indexed by ID;
//   - Ring is the FIFO behind the send queue and the timeout queues.
#ifndef LDPLAYER_REPLAY_INFLIGHT_H
#define LDPLAYER_REPLAY_INFLIGHT_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace ldp::replay {

// Allocates a 16-bit DNS query ID that is not currently inflight, probing
// upward from `next_id` (which is advanced past the returned ID). Sets
// *collided when the preferred ID was occupied — the caller counts it —
// and returns nullopt when all 65536 IDs are inflight. Shared by the UDP
// ID table and the per-TCP-connection maps: any container with size() and
// contains(id) will do.
template <typename InflightMap>
std::optional<uint16_t> AllocateQueryId(uint16_t& next_id,
                                        const InflightMap& inflight,
                                        bool* collided) {
  *collided = false;
  if (inflight.size() >= 0x10000) return std::nullopt;
  uint16_t id = next_id;
  while (inflight.contains(id)) {
    *collided = true;
    ++id;  // uint16_t arithmetic wraps 65535 -> 0 by definition
  }
  next_id = static_cast<uint16_t>(id + 1);
  return id;
}

// The inflight entries of one 16-bit ID space: a 65,536-entry index from
// ID to a slot in a dense pool that grows only to the peak inflight count.
// A freed slot is reused by a later Insert with the buffers its last
// occupant left (their capacity kept), so once the pool has grown,
// tracking a query allocates nothing. Slot references stay valid until
// the next Insert.
template <typename Entry>
class InflightTable {
 public:
  InflightTable() : index_(kIds, kFree) {}

  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  bool contains(uint16_t id) const { return index_[id] != kFree; }

  Entry* find(uint16_t id) {
    const uint32_t slot = index_[id];
    return slot == kFree ? nullptr : &pool_[slot];
  }

  // Claims a slot for `id`, which must not be inflight. The entry holds
  // whatever its previous occupant left: the caller resets every field,
  // reusing the buffers.
  Entry& Insert(uint16_t id) {
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    index_[id] = slot;
    ++live_;
    return pool_[slot];
  }

  // Frees `id`, which must be inflight; its slot keeps its buffers.
  void Erase(uint16_t id) {
    free_.push_back(index_[id]);
    index_[id] = kFree;
    --live_;
  }

 private:
  static constexpr size_t kIds = 0x10000;
  static constexpr uint32_t kFree = UINT32_MAX;

  std::vector<uint32_t> index_;  // ID -> slot, kFree when not inflight
  std::vector<Entry> pool_;
  std::vector<uint32_t> free_;   // slots not in use
  size_t live_ = 0;
};

// A FIFO over a power-of-two ring that grows by doubling and never
// shrinks: in steady state pushes and pops allocate nothing, where a
// std::deque frees and allocates a block every few elements.
template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() { return slots_[head_]; }
  // i-th element from the front.
  T& operator[](size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }

  void push_back(T value) {
    if (size_ == slots_.size()) Grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  // Inserts `value` so that it becomes element `at` (0 = front), moving
  // the elements behind it back by one: cheap when `at` is near the back.
  void insert(size_t at, T value) {
    push_back(std::move(value));
    for (size_t i = size_ - 1; i > at; --i) {
      std::swap((*this)[i], (*this)[i - 1]);
    }
  }

  // Moves the front element out.
  T pop_front() {
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return value;
  }

 private:
  void Grow() {
    std::vector<T> grown(slots_.empty() ? 16 : slots_.size() * 2);
    for (size_t i = 0; i < size_; ++i) grown[i] = std::move((*this)[i]);
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;  // capacity: 0 or a power of two
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace ldp::replay

#endif  // LDPLAYER_REPLAY_INFLIGHT_H
