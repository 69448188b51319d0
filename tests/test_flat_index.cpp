// FlatIndex, the one open-addressing table behind the order book and the
// session store, against std::unordered_map.
//
// Seeded op soups (insert of an absent key, erase of a present key, find of
// a present key, find of an absent key, reserve) run over the three key
// types the tree uses — session ids (u32), order ids and client keys — and
// every lookup is checked against the map. Small key universes keep the
// live set dense enough that erases leave tombstones on other keys' probe
// paths; a colliding hash makes every key share one chain. Direct cases
// pin the growth policy: a bounded live set churning through never grows
// the table, and an insert reuses the first tombstone on its probe path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "book/flat_index.hpp"
#include "exchange/session_store.hpp"
#include "sim/random.hpp"

namespace {

using namespace tsn;
using book::FlatIndex;
using exchange::ClientKey;

// Every key lands in one of four home slots: probe chains run through
// nearly the whole table, so a broken tombstone shows up at once.
struct CollidingHash {
  std::size_t operator()(std::uint32_t key) const noexcept { return key & 3; }
};

struct ClientKeyStdHash {
  std::size_t operator()(const ClientKey& key) const noexcept {
    return std::hash<std::uint64_t>{}(key.client_id) ^ (std::size_t{key.slot} << 1);
  }
};

template <typename Key, typename Hash, typename MapHash, typename MakeKey>
void run_soup(std::uint64_t seed, std::uint64_t universe, MakeKey make_key) {
  sim::Rng rng(seed);
  FlatIndex<Key, std::uint32_t, Hash> index;
  std::unordered_map<Key, std::uint32_t, MapHash> oracle;
  std::vector<Key> live;  // the oracle's keys, for picking a present one
  std::uint32_t next_value = 1;
  std::size_t reserved = 0;

  const auto pick_absent = [&]() -> Key {
    while (true) {
      const Key key = make_key(rng.next_below(universe));
      if (!oracle.contains(key)) return key;
    }
  };

  for (int op = 0; op < 20'000; ++op) {
    const std::uint64_t kind = rng.next_below(100);
    const bool can_insert = live.size() * 2 < universe;
    if (kind < 35 && can_insert) {  // insert an absent key
      const Key key = pick_absent();
      index.insert(key, next_value);
      oracle.emplace(key, next_value);
      live.push_back(key);
      ++next_value;
    } else if (kind < 65 && !live.empty()) {  // erase a present key
      const std::size_t at = rng.next_below(live.size());
      const Key key = live[at];
      index.erase(key);
      oracle.erase(key);
      live[at] = live.back();
      live.pop_back();
    } else if (kind < 80 && !live.empty()) {  // find a present key, then rewrite its value
      const Key key = live[rng.next_below(live.size())];
      std::uint32_t* value = index.find(key);
      ASSERT_NE(value, nullptr) << "op " << op;
      ASSERT_EQ(*value, oracle.at(key)) << "op " << op;
      *value = next_value;
      oracle[key] = next_value++;
    } else if (kind < 98) {  // find an absent key
      if (!can_insert) continue;
      const Key key = pick_absent();
      ASSERT_EQ(static_cast<const decltype(index)&>(index).find(key), nullptr) << "op " << op;
    } else {  // reserve: never shrinks, and holds the asked-for live count at half load
      const std::size_t want = rng.next_below(universe / 2 + 1);
      const std::size_t before = index.capacity();
      index.reserve(want);
      reserved = std::max(reserved, want);
      ASSERT_GE(index.capacity(), before);
      ASSERT_GE(index.capacity(), 2 * want);
    }
    ASSERT_EQ(index.size(), oracle.size());
    ASSERT_GE(index.capacity(), 2 * reserved) << "the table shrank below a reserve";
    if (op % 1'000 == 0) {
      for (const auto& [key, value] : oracle) {
        const std::uint32_t* found = index.find(key);
        ASSERT_NE(found, nullptr) << "op " << op;
        ASSERT_EQ(*found, value) << "op " << op;
      }
    }
  }
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 42, 9'999};

TEST(FlatIndexDifferential, SessionIdKeys) {
  for (const std::uint64_t seed : kSeeds) {
    run_soup<std::uint32_t, book::Mix64Hash, std::hash<std::uint32_t>>(
        seed, 400, [](std::uint64_t i) { return static_cast<std::uint32_t>(5'000'000 + i); });
  }
}

TEST(FlatIndexDifferential, SessionIdKeysOnOneProbeChain) {
  for (const std::uint64_t seed : kSeeds) {
    run_soup<std::uint32_t, CollidingHash, std::hash<std::uint32_t>>(
        seed, 96, [](std::uint64_t i) { return static_cast<std::uint32_t>(i * 4); });
  }
}

TEST(FlatIndexDifferential, OrderIdKeys) {
  for (const std::uint64_t seed : kSeeds) {
    // Session-derived ids (session << 32 | seq), the shape the client index
    // sees from real gateways.
    run_soup<proto::OrderId, book::Mix64Hash, std::hash<proto::OrderId>>(
        seed, 600, [](std::uint64_t i) { return ((i % 24) << 32) | (i / 24); });
  }
}

TEST(FlatIndexDifferential, ClientKeys) {
  for (const std::uint64_t seed : kSeeds) {
    run_soup<ClientKey, exchange::ClientKeyHash, ClientKeyStdHash>(
        seed, 600, [](std::uint64_t i) {
          return ClientKey{((i % 40) << 32) | (i / 40), static_cast<std::uint32_t>(i % 40)};
        });
  }
}

// 24 live keys churned 20,000 times: every load trip comes from tombstones,
// so each one compacts at the same capacity instead of doubling.
TEST(FlatIndexPolicy, BoundedChurnStaysAtSixtyFourSlots) {
  sim::Rng rng(7);
  FlatIndex<proto::OrderId, std::uint32_t> index;
  std::vector<proto::OrderId> live;
  proto::OrderId next_id = 1;
  std::size_t capacity_hwm = 0;
  for (int op = 0; op < 20'000; ++op) {
    if (live.size() < 24 && (live.empty() || rng.bernoulli(0.55))) {
      index.insert(next_id, static_cast<std::uint32_t>(next_id));
      live.push_back(next_id++);
    } else {
      const std::size_t at = rng.next_below(live.size());
      index.erase(live[at]);
      live[at] = live.back();
      live.pop_back();
    }
    capacity_hwm = std::max(capacity_hwm, index.capacity());
  }
  for (const proto::OrderId id : live) {
    ASSERT_NE(index.find(id), nullptr);
    EXPECT_EQ(*index.find(id), static_cast<std::uint32_t>(id));
  }
  // 24 live keys need 64 slots at the 7/10 trip; compaction holds it there.
  EXPECT_EQ(capacity_hwm, 64u);
  EXPECT_EQ(index.capacity(), 64u);
}

// All keys share one probe chain. Erasing a key in the middle leaves a
// tombstone that keeps the keys behind it reachable, and the next insert
// takes that slot rather than the empty one past the chain's end. With 33
// live keys in 64 slots, an insert that skipped the tombstone would trip
// the 7/10 trigger within a dozen cycles and, at half load, double the
// table.
TEST(FlatIndexPolicy, InsertReusesTombstoneOnItsProbePath) {
  struct OneChain {
    std::size_t operator()(std::uint32_t) const noexcept { return 0; }
  };
  FlatIndex<std::uint32_t, std::uint32_t, OneChain> index;
  for (std::uint32_t key = 1; key <= 33; ++key) index.insert(key, key);
  ASSERT_EQ(index.capacity(), 64u);
  std::uint32_t victim = 3;
  for (std::uint32_t fresh = 100; fresh < 1'100; ++fresh) {
    index.erase(victim);
    EXPECT_EQ(index.find(victim), nullptr);
    for (std::uint32_t key = 4; key <= 33; ++key) {
      ASSERT_NE(index.find(key), nullptr) << "key " << key << " cut off after erasing " << victim;
    }
    index.insert(fresh, fresh);
    victim = fresh;
  }
  EXPECT_EQ(index.capacity(), 64u) << "an insert skipped the tombstone on its probe path";
  EXPECT_EQ(index.size(), 33u);
}

// reserve() sizes for half load; inserting up to that count never rebuilds,
// and a later, smaller reserve never shrinks the table.
TEST(FlatIndexPolicy, ReserveHoldsThroughFillAndNeverShrinks) {
  FlatIndex<std::uint32_t, std::uint32_t> index;
  EXPECT_EQ(index.capacity(), 0u);
  EXPECT_EQ(index.find(1), nullptr);  // an empty index owns no table yet
  index.reserve(1'000);
  EXPECT_EQ(index.capacity(), 2'048u);
  for (std::uint32_t key = 0; key < 1'000; ++key) index.insert(key, key + 1);
  EXPECT_EQ(index.capacity(), 2'048u);
  index.reserve(10);
  EXPECT_EQ(index.capacity(), 2'048u);
  for (std::uint32_t key = 0; key < 1'000; ++key) {
    ASSERT_NE(index.find(key), nullptr);
    EXPECT_EQ(*index.find(key), key + 1);
  }
}

}  // namespace
