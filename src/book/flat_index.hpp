// Flat, cache-aligned storage and the one open-addressing hash index built
// on it. The order book's id index and the session store's directory,
// exchange-id index and client-id index are all `FlatIndex` instances, and
// every slab in both lives in `Column`s.
//
// FlatIndex layout: three parallel columns (key | value | state byte), so a
// slot costs sizeof(Key) + sizeof(Value) + 1 bytes. Power-of-two capacity,
// linear probing, tombstones on erase. One growth policy:
//
//   trigger      an insert that would bring live + tombstoned slots to 7/10
//                of capacity rebuilds the table first;
//   compaction   the rebuild keeps the capacity when fewer than half the
//                slots are live (tombstones tripped it, so a bounded live
//                set churning through never grows the table) and doubles it
//                otherwise.
//
// Capacity never shrinks, so a reserve() holds for the table's lifetime.
// There is no iteration API: nothing can observe probe order, so where a
// key lands can never leak into a run's output.
//
// The first allocation is lazy (an empty index owns no memory), so an owner
// can stay noexcept-constructible.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "core/check.hpp"

namespace tsn::book {

// Cache-line-aligned backing for one SoA column: the base of every column is
// 64-byte aligned so no two columns share a line and the matching loop's
// streaming loads stay line-exclusive.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  // The standard library calls these two through allocator_traits for every
  // Column; no call in src/ names them.
  // tsn-lint: allow(unreached-member) std::vector calls it for every book::Column slab
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  // tsn-lint: allow(unreached-member) std::vector calls it for every book::Column slab
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kAlign});
  }
  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using Column = std::vector<T, CacheAlignedAllocator<T>>;

// splitmix64's finalizer. Ids are often sequential (order ids, session ids),
// so the index needs real avalanche to keep probe chains short.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

struct Mix64Hash {
  [[nodiscard]] constexpr std::size_t operator()(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(mix64(key));
  }
};

// FNV-1a over the eight little-endian bytes of each 64-bit value: the one
// fold behind every state digest and fingerprint. Start from another digest
// by seeding `hash`.
struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  constexpr void mix(std::uint64_t value) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (i * 8)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
};

template <typename Key, typename Value, typename Hash = Mix64Hash>
class FlatIndex {
 public:
  // tsn-lint: hotpath
  [[nodiscard]] const Value* find(const Key& key) const noexcept {
    if (states_.empty()) return nullptr;
    for (std::size_t i = Hash{}(key) & mask_;; i = (i + 1) & mask_) {
      const std::uint8_t state = states_[i];
      if (state == kEmpty) return nullptr;
      if (state == kFull && keys_[i] == key) return &values_[i];
    }
  }
  // tsn-lint: hotpath
  [[nodiscard]] Value* find(const Key& key) noexcept {
    return const_cast<Value*>(static_cast<const FlatIndex&>(*this).find(key));
  }

  // Inserts a key that is not present. Reuses the first tombstone on the
  // key's probe path.
  // tsn-lint: hotpath
  void insert(const Key& key, Value value) {
    TSN_DCHECK(find(key) == nullptr, "FlatIndex::insert requires an absent key");
    if ((used_ + 1) * 10 >= states_.size() * 7) rebuild(0);
    std::size_t i = Hash{}(key) & mask_;
    while (states_[i] == kFull) i = (i + 1) & mask_;
    if (states_[i] == kEmpty) ++used_;
    states_[i] = kFull;
    keys_[i] = key;
    values_[i] = value;
    ++size_;
  }

  // Erases a key that is present, leaving a tombstone so the probe chains
  // running through its slot stay intact.
  // tsn-lint: hotpath
  void erase(const Key& key) noexcept {
    TSN_DCHECK(!states_.empty(), "FlatIndex::erase requires a present key");
    for (std::size_t i = Hash{}(key) & mask_;; i = (i + 1) & mask_) {
      const std::uint8_t state = states_[i];
      TSN_DCHECK(state != kEmpty, "FlatIndex::erase requires a present key");
      if (state == kFull && keys_[i] == key) {
        states_[i] = kTombstone;
        --size_;
        return;
      }
    }
  }

  // Sizes the table so `live` entries sit at half load or less.
  void reserve(std::size_t live) {
    if (2 * live > states_.size()) rebuild(2 * live);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return states_.size(); }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;
  static constexpr std::uint8_t kTombstone = 2;
  // Large enough that a handful of live keys churning through (an
  // exchange's few open orders) compacts every few dozen inserts, not every
  // few.
  static constexpr std::size_t kMinCapacity = 64;

  // Cold: the one growth and compaction path. Rebuilds without tombstones
  // into at least `min_capacity` slots, doubling when half or more of the
  // current slots are live and compacting at the same size otherwise.
  void rebuild(std::size_t min_capacity) {
    const std::size_t current = states_.size();
    const std::size_t policy = size_ * 2 < current ? current : 2 * current;
    const std::size_t capacity = std::bit_ceil(std::max({policy, min_capacity, kMinCapacity}));
    Column<Key> keys(capacity);
    Column<Value> values(capacity);
    Column<std::uint8_t> states(capacity, kEmpty);
    const std::size_t mask = capacity - 1;
    for (std::size_t j = 0; j < current; ++j) {
      if (states_[j] != kFull) continue;
      std::size_t i = Hash{}(keys_[j]) & mask;
      while (states[i] == kFull) i = (i + 1) & mask;
      states[i] = kFull;
      keys[i] = keys_[j];
      values[i] = values_[j];
    }
    keys_ = std::move(keys);
    values_ = std::move(values);
    states_ = std::move(states);
    mask_ = capacity - 1;
    used_ = size_;
  }

  Column<Key> keys_;
  Column<Value> values_;
  Column<std::uint8_t> states_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;  // live entries
  std::size_t used_ = 0;  // live entries + tombstones
};

}  // namespace tsn::book
