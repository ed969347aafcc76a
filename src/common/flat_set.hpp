// Open-addressing hash tables keyed by u64: FlatMapU64<V> and FlatSetU64.
//
// The memory system's hot path keys per-line state by line address: the
// write queues' membership sets, the RAS and lifetime per-line tables, the
// wear-leveling regions and the closed-loop in-flight tickets.
// std::unordered_map allocates a node per insert, hashes through a prime
// modulus and chases a pointer per lookup; these tables keep key and
// value together in one slot array instead. Linear probing over a
// power-of-two table, a SplitMix64 mix of the key, and backward-shift
// deletion (no tombstones, so probes stay short however long the table
// churns). A free slot holds the key ~0; that one key, when present, is
// stored beside the table, so every u64 is a valid key. The load factor
// never exceeds 3/4: FlatMapU64 doubles before it would; FlatSetU64 sizes
// its table once for its fixed capacity and never grows.
//
// Reference rule: a pointer or reference into a FlatMapU64 (from
// try_emplace or find) stays valid only until the next insert into the
// same table, which may rehash. Erase also moves slots. Values that must
// stay put (a leveler object, say) go behind a unique_ptr.
#pragma once

#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace nvmenc {

template <typename V>
class FlatMapU64 {
 public:
  FlatMapU64() = default;
  /// Pre-sized so that `expected` keys fit without a rehash.
  explicit FlatMapU64(usize expected) { reserve(expected); }

  /// Grows the table (never shrinks it) so `n` keys fit at load <= 3/4.
  void reserve(usize n) {
    usize table = slots_.empty() ? kMinSlots : slots_.size();
    while (n * 4 > table * 3) table <<= 1;
    if (table != slots_.size()) rehash(table);
  }

  /// Value stored under `key`, value-initialized and inserted first when
  /// absent; `second` tells whether it was inserted. The pointer follows
  /// the reference rule above.
  std::pair<V*, bool> try_emplace(u64 key) {
    if (key == kFree) {
      const bool inserted = !has_free_key_;
      has_free_key_ = true;
      size_ += inserted ? 1 : 0;
      return {&free_key_value_, inserted};
    }
    if (!slots_.empty()) {
      usize i = slot_of(key);
      for (; slots_[i].key != kFree; i = (i + 1) & mask_) {
        if (slots_[i].key == key) return {&slots_[i].value, false};
      }
      if ((size_ + 1) * 4 <= slots_.size() * 3) return {claim(i, key), true};
    }
    rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    usize i = slot_of(key);
    while (slots_[i].key != kFree) i = (i + 1) & mask_;
    return {claim(i, key), true};
  }

  /// Value stored under `key`, inserted value-initialized when absent.
  V& operator[](u64 key) { return *try_emplace(key).first; }

  [[nodiscard]] V* find(u64 key) noexcept {
    return const_cast<V*>(std::as_const(*this).find(key));
  }
  [[nodiscard]] const V* find(u64 key) const noexcept {
    if (key == kFree) return has_free_key_ ? &free_key_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (usize i = slot_of(key); slots_[i].key != kFree;
         i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
    }
    return nullptr;
  }
  [[nodiscard]] bool contains(u64 key) const noexcept {
    return find(key) != nullptr;
  }

  /// Removes `key`; returns false if it was absent. Backward-shift
  /// deletion: the probe cluster after the hole is compacted so lookups
  /// never need tombstones.
  bool erase(u64 key) {
    if (key == kFree) {
      if (!has_free_key_) return false;
      has_free_key_ = false;
      free_key_value_ = V{};
      --size_;
      return true;
    }
    if (slots_.empty()) return false;
    usize hole = slot_of(key);
    while (true) {
      if (slots_[hole].key == kFree) return false;
      if (slots_[hole].key == key) break;
      hole = (hole + 1) & mask_;
    }
    for (usize j = (hole + 1) & mask_; slots_[j].key != kFree;
         j = (j + 1) & mask_) {
      const usize home = slot_of(slots_[j].key);
      // Move j into the hole iff its home does not lie cyclically in
      // (hole, j]: the shift keeps it reachable from its home by probing.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Calls f(key, value) for every entry, in table order: callers must
  /// not depend on that order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.key != kFree) f(s.key, s.value);
    }
    if (has_free_key_) f(kFree, free_key_value_);
  }

  /// Empties the table, keeping its size (no allocation).
  void clear() noexcept {
    for (Slot& s : slots_) s = Slot{};
    has_free_key_ = false;
    free_key_value_ = V{};
    size_ = 0;
  }

  [[nodiscard]] usize size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slots in the table (0 before the first insert or reserve).
  [[nodiscard]] usize slot_count() const noexcept { return slots_.size(); }

 private:
  static constexpr usize kMinSlots = 8;
  static constexpr u64 kFree = ~u64{0};  ///< key of a free slot

  struct Slot {
    u64 key = kFree;
    V value{};
  };

  [[nodiscard]] usize slot_of(u64 key) const noexcept {
    // Full-avalanche mix so clustered line addresses spread over the table.
    return static_cast<usize>(SplitMix64{key}.next()) & mask_;
  }

  V* claim(usize i, u64 key) {
    slots_[i].key = key;
    ++size_;
    return &slots_[i].value;
  }

  void rehash(usize table) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(table));
    mask_ = table - 1;
    for (Slot& s : old) {
      if (s.key == kFree) continue;
      usize i = slot_of(s.key);
      while (slots_[i].key != kFree) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  usize mask_ = 0;
  usize size_ = 0;  ///< entries, the free key's included
  bool has_free_key_ = false;
  V free_key_value_{};
};

/// Fixed-capacity set of u64 keys. The write queues index their queued
/// line addresses in one for O(1) forward/coalesce checks: the queue
/// capacity is known and bounded, so the table is allocated once at
/// construction and never again.
class FlatSetU64 {
 public:
  explicit FlatSetU64(usize capacity) : capacity_{capacity} {
    require(capacity >= 1, "FlatSetU64 needs a positive capacity");
    table_.reserve(capacity);
  }

  /// Inserts `key`; returns false if it was already present. Throws when
  /// the set is full (the caller's queue-capacity bound was violated).
  bool insert(u64 key) {
    if (table_.size() >= capacity_) {
      require(table_.contains(key), "FlatSetU64 over capacity");
      return false;
    }
    return table_.try_emplace(key).second;
  }

  [[nodiscard]] bool contains(u64 key) const noexcept {
    return table_.contains(key);
  }
  /// Removes `key`; returns false if it was absent.
  bool erase(u64 key) { return table_.erase(key); }

  [[nodiscard]] usize size() const noexcept { return table_.size(); }
  [[nodiscard]] bool empty() const noexcept { return table_.empty(); }
  [[nodiscard]] usize capacity() const noexcept { return capacity_; }

  void clear() noexcept { table_.clear(); }

 private:
  struct Empty {};

  usize capacity_ = 0;
  FlatMapU64<Empty> table_;
};

}  // namespace nvmenc
