#ifndef MARLIN_COMMON_FLAT_HASH_H_
#define MARLIN_COMMON_FLAT_HASH_H_

/// \file flat_hash.h
/// \brief Open-addressing flat hash containers for hot-path state.
///
/// The streaming engines key per-vessel and per-pair state by small integer
/// ids at message rate. Node-based `std::map`/`std::unordered_map` pay one
/// heap allocation per entry plus pointer-chasing per lookup; this map keeps
/// keys and values in two flat arrays with linear probing and backward-shift
/// deletion, so steady-state lookups/inserts touch contiguous memory and
/// allocate only on growth.
///
/// Deliberate design constraints (checked by the engines that use it):
///  * Keys are trivially copyable (integral ids, packed pair keys).
///  * Values are default-constructible and movable; a freshly inserted slot
///    is reset to `V{}`.
///  * Iteration order is the probe-slot order — **unordered and dependent on
///    insertion history**. Callers whose *output* depends on order (event
///    emission, state export) must collect keys and sort explicitly; see
///    `PairEventEngine::ExportVessels` for the pattern.
///  * `Clear()` keeps the allocated capacity (the archive's per-epoch
///    staging table relies on it).

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/cache_line.h"

namespace marlin {

/// \brief splitmix64 finalizer: the avalanche mix used everywhere the code
/// needs a cheap, high-quality integer hash (shard routing uses the same
/// family, stream/shard_router.h).
inline uint64_t FlatHashMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// \brief Open-addressing hash map, linear probing, backward-shift erase.
///
/// The control block (three vector headers + size) is line-aligned and
/// fills exactly one 64-byte line on LP64: per-shard tables that sit next
/// to each other in engine state never share a line, so one shard's
/// insert (which rewrites `size_` and possibly the vector headers) cannot
/// invalidate the line a neighbouring shard's lookups are probing through.
template <typename K, typename V>
class alignas(kCacheLineBytes) FlatHashMap {
 public:
  FlatHashMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// \brief Removes every entry; capacity (and therefore steady-state
  /// allocation-freedom) is retained.
  void Clear() {
    if (size_ == 0) return;
    std::fill(used_.begin(), used_.end(), uint8_t{0});
    size_ = 0;
  }

  /// \brief Pre-sizes the table for `n` entries without rehashing later.
  void Reserve(size_t n) {
    size_t cap = 8;
    while (cap * 3 < n * 4 + 4) cap <<= 1;  // keep load factor < 0.75
    if (cap > used_.size()) Rehash(cap);
  }

  /// \brief Pointer to the value for `key`, or nullptr.
  V* Find(const K& key) {
    if (used_.empty()) return nullptr;
    size_t i = FindSlot(key);
    return i == kNotFound ? nullptr : &vals_[i];
  }
  const V* Find(const K& key) const {
    if (used_.empty()) return nullptr;
    size_t i = FindSlot(key);
    return i == kNotFound ? nullptr : &vals_[i];
  }

  /// \brief Inserts `key` when absent, preparing the slot's value with
  /// `reset` (which receives whatever stale value the recycled slot holds —
  /// a container caller can `clear()` it to keep its capacity, the pooling
  /// contract). Returns {value pointer, inserted}. The pointer is
  /// invalidated by the next mutating call (growth or backward-shift may
  /// move slots).
  template <typename ResetFn>
  std::pair<V*, bool> TryEmplaceWith(const K& key, ResetFn&& reset) {
    // Probe before any growth: a lookup hit must never rehash (callers may
    // hold value pointers across hit-only accesses).
    if (!used_.empty()) {
      const size_t mask = used_.size() - 1;
      size_t i = HomeOf(key);
      while (used_[i]) {
        if (keys_[i] == key) return {&vals_[i], false};
        i = (i + 1) & mask;
      }
      if ((size_ + 1) * 4 <= used_.size() * 3) {
        return {InsertAt(i, key, reset), true};
      }
    }
    Rehash(used_.empty() ? 8 : used_.size() * 2);
    const size_t mask = used_.size() - 1;
    size_t i = HomeOf(key);
    while (used_[i]) i = (i + 1) & mask;
    return {InsertAt(i, key, reset), true};
  }

  /// \brief Inserts `key` with a default-fresh value when absent.
  std::pair<V*, bool> TryEmplace(const K& key) {
    return TryEmplaceWith(key, [](V& value) { value = V{}; });
  }

  /// \brief `std::map`-style access: default-constructs missing entries.
  V& operator[](const K& key) { return *TryEmplace(key).first; }

  /// \brief Erases `key`; false when absent. Backward-shift deletion keeps
  /// probe chains intact without tombstones.
  bool Erase(const K& key) {
    if (used_.empty()) return false;
    size_t i = FindSlot(key);
    if (i == kNotFound) return false;
    const size_t mask = used_.size() - 1;
    size_t hole = i;
    size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (!used_[j]) break;
      const size_t home = HomeOf(keys_[j]);
      // Element j may shift into the hole only if its home does not lie
      // cyclically inside (hole, j] — otherwise the move would break its
      // own probe chain.
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        keys_[hole] = keys_[j];
        vals_[hole] = std::move(vals_[j]);
        hole = j;
      }
    }
    used_[hole] = 0;
    --size_;
    return true;
  }

  /// \brief Applies `fn(key, value)` to every entry, in slot order (see the
  /// header comment: NOT a deterministic order for output purposes).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < used_.size(); ++i) {
      if (used_[i]) fn(keys_[i], vals_[i]);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < used_.size(); ++i) {
      if (used_[i]) fn(keys_[i], vals_[i]);
    }
  }

 private:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  size_t HomeOf(const K& key) const {
    return static_cast<size_t>(FlatHashMix(static_cast<uint64_t>(key))) &
           (used_.size() - 1);
  }

  size_t FindSlot(const K& key) const {
    const size_t mask = used_.size() - 1;
    size_t i = HomeOf(key);
    while (used_[i]) {
      if (keys_[i] == key) return i;
      i = (i + 1) & mask;
    }
    return kNotFound;
  }

  template <typename ResetFn>
  V* InsertAt(size_t i, const K& key, ResetFn&& reset) {
    used_[i] = 1;
    keys_[i] = key;
    reset(vals_[i]);
    ++size_;
    return &vals_[i];
  }

  void Rehash(size_t new_cap) {
    assert((new_cap & (new_cap - 1)) == 0);
    std::vector<uint8_t> old_used = std::move(used_);
    std::vector<K> old_keys = std::move(keys_);
    std::vector<V> old_vals = std::move(vals_);
    used_.assign(new_cap, 0);
    keys_.resize(new_cap);
    vals_.resize(new_cap);
    const size_t mask = new_cap - 1;
    for (size_t i = 0; i < old_used.size(); ++i) {
      if (!old_used[i]) continue;
      size_t j = HomeOf(old_keys[i]);
      while (used_[j]) j = (j + 1) & mask;
      used_[j] = 1;
      keys_[j] = old_keys[i];
      vals_[j] = std::move(old_vals[i]);
    }
  }

  // Hottest first: every lookup reads the `used_` header and `size_`
  // drives the load-factor check — one line covers the whole block.
  std::vector<uint8_t> used_;
  size_t size_ = 0;
  std::vector<K> keys_;
  std::vector<V> vals_;
};
static_assert(sizeof(FlatHashMap<uint64_t, uint64_t>) <= 2 * kCacheLineBytes,
              "FlatHashMap control block should stay within two lines");

/// \brief Flat hash set over the same table machinery.
template <typename K>
class FlatHashSet {
 public:
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Clear() { map_.Clear(); }
  void Reserve(size_t n) { map_.Reserve(n); }

  /// \brief True when `key` was newly inserted.
  bool Insert(const K& key) { return map_.TryEmplace(key).second; }
  bool Contains(const K& key) const { return map_.Find(key) != nullptr; }
  bool Erase(const K& key) { return map_.Erase(key); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&fn](const K& key, const Empty&) { fn(key); });
  }

 private:
  struct Empty {};
  FlatHashMap<K, Empty> map_;
};

}  // namespace marlin

#endif  // MARLIN_COMMON_FLAT_HASH_H_
