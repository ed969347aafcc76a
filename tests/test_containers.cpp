// RingBuffer, FlatSetU64 and FlatMapU64 back the zero-allocation hot path
// of the channel shards and their RAS, lifetime and wear-leveling state;
// these tests pin their FIFO/set/map semantics against the std containers
// they replaced, including the regrowth and backward-shift deletion
// corners that plain usage rarely exercises.
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_set.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "gtest/gtest.h"

using namespace nvmenc;

TEST(RingBufferTest, FifoOrderAcrossWraparound) {
  RingBuffer<int> ring;
  ring.reserve(4);
  std::deque<int> model;
  // Interleave pushes and pops so head_ wraps several times at the
  // initial capacity before growth kicks in.
  int next = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) {
      ring.push_back(next);
      model.push_back(next);
      ++next;
    }
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(ring.front(), model.front());
      ring.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(ring.size(), model.size());
  }
  while (!model.empty()) {
    ASSERT_EQ(ring.front(), model.front());
    ring.pop_front();
    model.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingBufferTest, GrowthPreservesLogicalOrder) {
  RingBuffer<int> ring;
  ring.reserve(4);
  // Offset the head so regrowth must copy a wrapped layout.
  for (int i = 0; i < 3; ++i) ring.push_back(-1);
  for (int i = 0; i < 3; ++i) ring.pop_front();
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  ASSERT_EQ(ring.size(), 100u);
  for (usize i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i));
  }
}

TEST(RingBufferTest, EraseAtKeepsOrder) {
  for (usize victim = 0; victim < 7; ++victim) {
    RingBuffer<int> ring;
    ring.reserve(8);
    // Wrap the head first so erase_at crosses the physical seam.
    for (int i = 0; i < 5; ++i) ring.push_back(-1);
    for (int i = 0; i < 5; ++i) ring.pop_front();
    std::vector<int> model;
    for (int i = 0; i < 7; ++i) {
      ring.push_back(i);
      model.push_back(i);
    }
    ring.erase_at(victim);
    model.erase(model.begin() + static_cast<std::ptrdiff_t>(victim));
    ASSERT_EQ(ring.size(), model.size());
    for (usize i = 0; i < model.size(); ++i) {
      EXPECT_EQ(ring[i], model[i]) << "victim " << victim << " slot " << i;
    }
  }
}

TEST(RingBufferTest, ReserveMakesSteadyStatePushPopAllocationFree) {
  RingBuffer<int> ring;
  ring.reserve(64);
  const usize cap = ring.capacity();
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 60; ++i) ring.push_back(i);
    for (int i = 0; i < 60; ++i) ring.pop_front();
  }
  EXPECT_EQ(ring.capacity(), cap);  // never regrew
}

TEST(FlatSetTest, MatchesUnorderedSetUnderRandomChurn) {
  constexpr usize kCapacity = 64;
  FlatSetU64 set{kCapacity};
  std::unordered_set<u64> model;
  Xoshiro256 rng{12345};
  // Small key universe forces frequent hits, repeats, and erases of
  // keys in shared collision clusters.
  for (int step = 0; step < 20'000; ++step) {
    const u64 key = rng.next_below(200);
    switch (rng.next_below(3)) {
      case 0: {
        if (model.size() >= kCapacity) break;  // respect fixed capacity
        const bool inserted = set.insert(key);
        EXPECT_EQ(inserted, model.insert(key).second);
        break;
      }
      case 1: {
        const bool erased = set.erase(key);
        EXPECT_EQ(erased, model.erase(key) > 0);
        break;
      }
      default:
        EXPECT_EQ(set.contains(key), model.contains(key));
        break;
    }
    ASSERT_EQ(set.size(), model.size());
  }
  for (u64 key = 0; key < 200; ++key) {
    EXPECT_EQ(set.contains(key), model.contains(key)) << "key " << key;
  }
}

TEST(FlatSetTest, BackwardShiftKeepsClusterMembersReachable) {
  // Build a deliberate collision cluster by filling to capacity, then
  // erase from the middle of the table and verify every survivor is
  // still found (the classic tombstone-free deletion pitfall).
  constexpr usize kCapacity = 32;
  FlatSetU64 set{kCapacity};
  std::vector<u64> keys;
  for (u64 k = 0; keys.size() < kCapacity; ++k) {
    if (set.insert(k * 7919)) keys.push_back(k * 7919);
  }
  for (usize i = 0; i < keys.size(); i += 3) {
    ASSERT_TRUE(set.erase(keys[i]));
  }
  for (usize i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(set.contains(keys[i]), i % 3 != 0) << "key " << keys[i];
  }
}

TEST(FlatSetTest, InsertBeyondCapacityThrows) {
  FlatSetU64 set{4};
  for (u64 k = 0; k < 4; ++k) ASSERT_TRUE(set.insert(k));
  EXPECT_FALSE(set.insert(2));  // duplicate: already present, no growth
  EXPECT_THROW(set.insert(99), std::invalid_argument);
}

TEST(FlatSetTest, ClearEmptiesWithoutShrinking) {
  FlatSetU64 set{16};
  for (u64 k = 0; k < 16; ++k) set.insert(k * 13);
  set.clear();
  EXPECT_TRUE(set.empty());
  for (u64 k = 0; k < 16; ++k) EXPECT_FALSE(set.contains(k * 13));
  for (u64 k = 0; k < 16; ++k) EXPECT_TRUE(set.insert(k * 17));
}

/// Keys whose SplitMix64 mix (the table's slot hash) agrees in its low 12
/// bits: they share one home slot in every table of up to 4096 slots, so
/// they build a single long probe cluster that wraps the table's end.
std::vector<u64> colliding_keys(usize count) {
  std::vector<u64> keys;
  for (u64 k = 1; keys.size() < count; ++k) {
    SplitMix64 mix{k};  // next() mixes k + the golden-ratio increment
    if ((mix.next() & 0xfff) == 0xffe) keys.push_back(k);
  }
  return keys;
}

TEST(FlatMapTest, MatchesUnorderedMapUnderRandomChurn) {
  // Keys drawn from five families: a small dense range (frequent hits),
  // the extremes 0 and ~0 (~0 is the free-slot key, kept beside the
  // table), line-address-like keys that share their low 20 bits, keys
  // that collide in the mixed slot hash, and full-range random keys. The table starts empty and
  // doubles several times on the way to about 3000 entries, then churns.
  const std::vector<u64> collide = colliding_keys(48);
  Xoshiro256 rng{2024};
  const auto draw_key = [&]() -> u64 {
    switch (rng.next_below(5)) {
      case 0:
        return rng.next_below(4000);
      case 1:
        return rng.next_bool(0.5) ? 0 : ~u64{0};
      case 2:
        return rng.next_below(4000) << 20;
      case 3:
        return collide[rng.next_below(collide.size())];
      default:
        return rng.next();
    }
  };
  FlatMapU64<u64> map;
  std::unordered_map<u64, u64> model;
  usize most_slots = 0;
  for (int step = 0; step < 60'000; ++step) {
    const u64 key = draw_key();
    // Insert-heavy first, then balanced churn around a steady size.
    const u64 insert_weight = step < 20'000 ? 6 : 3;
    const u64 op = rng.next_below(insert_weight + 4);
    if (op < insert_weight) {
      const u64 value = rng.next();
      const auto [slot, inserted] = map.try_emplace(key);
      const auto [it, model_inserted] = model.try_emplace(key, 0);
      ASSERT_EQ(inserted, model_inserted) << "key " << key;
      ASSERT_EQ(*slot, it->second) << "key " << key;
      *slot = value;
      it->second = value;
    } else if (op < insert_weight + 2) {
      ASSERT_EQ(map.erase(key), model.erase(key) > 0) << "key " << key;
    } else {
      const u64* found = map.find(key);
      const auto it = model.find(key);
      ASSERT_EQ(found != nullptr, it != model.end()) << "key " << key;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << "key " << key;
      }
    }
    ASSERT_EQ(map.size(), model.size());
    ASSERT_LE(map.size() * 4, map.slot_count() * 3) << "load above 3/4";
    most_slots = std::max(most_slots, map.slot_count());
  }
  EXPECT_GE(most_slots, 4096u) << "the table never grew through doublings";

  // Every surviving entry is found, and iteration visits exactly them.
  usize visited = 0;
  map.for_each([&](u64 key, const u64& value) {
    const auto it = model.find(key);
    ASSERT_NE(it, model.end()) << "key " << key;
    EXPECT_EQ(value, it->second);
    ++visited;
  });
  EXPECT_EQ(visited, model.size());
  for (const auto& [key, value] : model) {
    ASSERT_NE(map.find(key), nullptr) << "key " << key;
    EXPECT_EQ(*map.find(key), value);
  }
  for (const u64 key : collide) {
    EXPECT_EQ(map.contains(key), model.contains(key)) << "key " << key;
  }

  // clear() keeps the table, and the free-slot key behaves like any other.
  const usize slots = map.slot_count();
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.slot_count(), slots);
  EXPECT_FALSE(map.contains(0));
  EXPECT_FALSE(map.contains(~u64{0}));
  map[~u64{0}] = 7;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find(~u64{0}), 7u);
  EXPECT_TRUE(map.erase(~u64{0}));
  EXPECT_FALSE(map.erase(~u64{0}));
  EXPECT_TRUE(map.empty());
}
