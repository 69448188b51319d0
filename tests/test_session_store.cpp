// Differential property test: SessionStore vs a naive std::map oracle.
//
// Randomized op soups (create / bind / unbind / re-login / takeover-style
// wrong-token logins / order register / close / journal stage+flush+replay)
// run against both the pooled sharded store and a transparently correct
// oracle built on std::map/std::set. After every mutation batch the test
// compares lookups, verdicts, per-shard connected membership *in bind
// order*, open-order sets, dedupe marks and byte-exact replay streams.
// Multiple shard counts exercise the connected-list sharding.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "exchange/session_store.hpp"
#include "sim/random.hpp"

namespace tsn {
namespace {

using exchange::LoginVerdict;
using exchange::OrderVerdict;
using exchange::SessionStore;
using exchange::SessionStoreConfig;

constexpr std::uint32_t kIdBase = 5'000'000;

struct OracleSession {
  std::uint64_t token = 0;
  bool bound = false;
  std::map<proto::OrderId, proto::OrderId> open;  // client id -> exchange id
  std::set<proto::OrderId> used;                  // every client id ever used
  std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> journal;
  std::uint32_t tx = 1;
};

struct Oracle {
  std::map<std::uint32_t, OracleSession> sessions;        // by external id
  std::map<std::uint32_t, std::vector<std::uint32_t>> shard_lists;  // bind order
  std::map<proto::OrderId, std::pair<std::uint32_t, proto::OrderId>> exch;  // -> (ext, client)

  void bind(std::uint32_t shard, std::uint32_t ext) {
    auto& list = shard_lists[shard];
    std::erase(list, ext);
    list.push_back(ext);
    sessions[ext].bound = true;
  }
  void unbind(std::uint32_t shard, std::uint32_t ext) {
    std::erase(shard_lists[shard], ext);
    sessions[ext].bound = false;
  }
};

class SessionStoreDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionStoreDifferentialTest, OpSoupMatchesOracle) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed);
  const std::uint32_t shard_cfg[] = {1, 4, 16, 32};
  SessionStoreConfig config;
  config.shards = shard_cfg[seed % 4];
  SessionStore store(config);
  if (seed % 2 == 0) store.reserve(64, 256, 1 << 14);  // odd seeds grow on demand
  Oracle oracle;

  const std::uint32_t population = 48;
  std::uint64_t next_exchange_id = 1;
  std::uint32_t next_conn = 1;
  std::uint64_t next_client_id = 1;
  std::vector<proto::OrderId> scratch_ids;

  const auto token_of = [](std::uint32_t ext) { return 0x70CE2ULL + ext * 7919ULL; };
  const auto slot_of = [&](std::uint32_t ext) { return store.lookup(ext); };
  const auto pick_live = [&]() -> std::uint32_t {
    if (oracle.sessions.empty()) return 0;
    auto it = oracle.sessions.begin();
    std::advance(it, static_cast<long>(rng.next_below(oracle.sessions.size())));
    return it->first;
  };

  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 22) {  // login (fresh, resume, or wrong token)
      const std::uint32_t ext = kIdBase + static_cast<std::uint32_t>(rng.next_below(population));
      const bool wrong = rng.bernoulli(0.15);
      const std::uint64_t token = wrong ? ~token_of(ext) : token_of(ext);
      const auto result = store.login(ext, token);
      auto it = oracle.sessions.find(ext);
      if (it == oracle.sessions.end()) {
        ASSERT_EQ(result.verdict, LoginVerdict::kNew);
        oracle.sessions[ext].token = token;
      } else if (it->second.token == token) {
        ASSERT_EQ(result.verdict, LoginVerdict::kMatch);
        ASSERT_EQ(store.session_id(result.slot), ext);
      } else {
        ASSERT_EQ(result.verdict, LoginVerdict::kInUse);
        ASSERT_EQ(result.slot, SessionStore::kNullSlot);
      }
    } else if (kind < 34) {  // bind (fresh conn, possibly a rebind)
      if (oracle.sessions.empty()) continue;
      const std::uint32_t ext = pick_live();
      store.bind(slot_of(ext), next_conn++);
      oracle.bind(store.shard_of(ext), ext);
    } else if (kind < 42) {  // unbind
      if (oracle.sessions.empty()) continue;
      const std::uint32_t ext = pick_live();
      store.unbind(slot_of(ext));
      oracle.unbind(store.shard_of(ext), ext);
    } else if (kind < 62) {  // register an order (sometimes a duplicate id)
      if (oracle.sessions.empty()) continue;
      const std::uint32_t ext = pick_live();
      auto& osess = oracle.sessions[ext];
      proto::OrderId client_id;
      if (!osess.used.empty() && rng.bernoulli(0.25)) {
        auto it = osess.used.begin();
        std::advance(it, static_cast<long>(rng.next_below(osess.used.size())));
        client_id = *it;
      } else {
        client_id = next_client_id++;
      }
      const proto::OrderId exchange_id = next_exchange_id++;
      const auto verdict = store.register_order(slot_of(ext), client_id, exchange_id,
                                                static_cast<std::uint16_t>(ext % 7));
      if (osess.used.contains(client_id)) {
        ASSERT_EQ(verdict, OrderVerdict::kDuplicateClientId) << "id " << client_id;
      } else {
        ASSERT_EQ(verdict, OrderVerdict::kAccepted);
        osess.used.insert(client_id);
        osess.open[client_id] = exchange_id;
        oracle.exch[exchange_id] = {ext, client_id};
      }
    } else if (kind < 72) {  // close an open order
      if (oracle.exch.empty()) continue;
      auto it = oracle.exch.begin();
      std::advance(it, static_cast<long>(rng.next_below(oracle.exch.size())));
      const auto [ext, client_id] = it->second;
      const std::uint32_t order = store.find_open(slot_of(ext), client_id);
      ASSERT_NE(order, SessionStore::kNullSlot);
      ASSERT_EQ(store.order_exchange_id(order), it->first);
      store.close_order(order);
      oracle.sessions[ext].open.erase(client_id);
      oracle.exch.erase(it);
    } else if (kind < 84) {  // journal a sequenced message
      if (oracle.sessions.empty()) continue;
      const std::uint32_t ext = pick_live();
      auto& osess = oracle.sessions[ext];
      std::vector<std::byte> payload(1 + rng.next_below(24));
      for (auto& b : payload) b = static_cast<std::byte>(rng.next_below(256));
      const std::uint32_t seq = osess.tx++;
      store.journal_stage(slot_of(ext), seq, payload);
      osess.journal.emplace_back(seq, std::move(payload));
      if (rng.bernoulli(0.3)) store.journal_flush();
    } else if (kind < 90) {  // replay from a random horizon
      if (oracle.sessions.empty()) continue;
      const std::uint32_t ext = pick_live();
      const auto& osess = oracle.sessions[ext];
      const std::uint32_t last_seen =
          static_cast<std::uint32_t>(rng.next_below(osess.tx + 1));
      std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> got;
      store.replay(slot_of(ext), last_seen, [&](std::uint32_t seq,
                                                std::span<const std::byte> bytes) {
        got.emplace_back(seq, std::vector<std::byte>(bytes.begin(), bytes.end()));
      });
      std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> want;
      for (const auto& [seq, bytes] : osess.journal) {
        if (seq > last_seen) want.emplace_back(seq, bytes);
      }
      ASSERT_EQ(got, want) << "replay horizon " << last_seen;
    } else {  // point queries on a random live session
      if (oracle.sessions.empty()) continue;
      const std::uint32_t ext = pick_live();
      const auto& osess = oracle.sessions.at(ext);
      const std::uint32_t slot = slot_of(ext);
      ASSERT_NE(slot, SessionStore::kNullSlot);
      ASSERT_EQ(store.open_order_count(slot), osess.open.size());
      store.collect_open_client_ids(slot, scratch_ids);
      std::vector<proto::OrderId> want_ids;
      for (const auto& [cid, eid] : osess.open) want_ids.push_back(cid);
      ASSERT_EQ(scratch_ids, want_ids);  // both sorted ascending
      const proto::OrderId probe = rng.next_below(next_client_id + 4);
      ASSERT_EQ(store.client_id_used(slot, probe), osess.used.contains(probe));
      ASSERT_EQ(store.find_open(slot, probe) != SessionStore::kNullSlot,
                osess.open.contains(probe));
    }

    if (op % 97 == 0) {  // full cross-check: directory + sweep membership
      ASSERT_EQ(store.session_count(), oracle.sessions.size());
      ASSERT_EQ(store.open_orders_total(), oracle.exch.size());
      for (const auto& [eid, owner] : oracle.exch) {
        const std::uint32_t order = store.find_by_exchange(eid);
        ASSERT_NE(order, SessionStore::kNullSlot);
        ASSERT_EQ(store.order_client_id(order), owner.second);
        ASSERT_EQ(store.session_id(store.order_session(order)), owner.first);
      }
      for (std::uint32_t shard = 0; shard < store.shard_count(); ++shard) {
        std::vector<std::uint32_t> got;
        store.for_each_connected(shard, [&](std::uint32_t slot) {
          got.push_back(store.session_id(slot));
        });
        const auto it = oracle.shard_lists.find(shard);
        const std::vector<std::uint32_t> want =
            it == oracle.shard_lists.end() ? std::vector<std::uint32_t>{} : it->second;
        ASSERT_EQ(got, want) << "shard " << shard << " bind order diverged";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionStoreDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 17u, 42u, 1001u, 9999u));

// Tombstone-heavy churn: a bounded set of open orders cycling through the
// exchange-id index piles up tombstones to the load-factor trip over and
// over; lookups stay correct against a std::map oracle through every
// compaction. (The capacity bound is FlatIndex's own test.)
TEST(SessionStoreExchangeIndex, TombstoneChurnStaysCorrect) {
  sim::Rng rng(7);
  SessionStore store(SessionStoreConfig{.shards = 1});
  const std::uint32_t ext = kIdBase + 1;
  const std::uint32_t slot = store.login(ext, 9).slot;
  std::map<proto::OrderId, proto::OrderId> open;  // exchange id -> client id
  proto::OrderId next_client = 1;
  proto::OrderId next_exchange = 1;
  for (int op = 0; op < 20'000; ++op) {
    if (open.size() < 24 && (open.empty() || rng.bernoulli(0.55))) {
      const proto::OrderId cid = next_client++;
      const proto::OrderId eid = next_exchange++;
      ASSERT_EQ(store.register_order(slot, cid, eid, 0), OrderVerdict::kAccepted);
      open[eid] = cid;
    } else {
      auto it = open.begin();
      std::advance(it, static_cast<long>(rng.next_below(open.size())));
      const std::uint32_t order = store.find_by_exchange(it->first);
      ASSERT_NE(order, SessionStore::kNullSlot);
      ASSERT_EQ(store.order_client_id(order), it->second);
      store.close_order(order);
      open.erase(it);
    }
    if (op % 500 == 0) {
      ASSERT_EQ(store.open_orders_total(), open.size());
      for (const auto& [eid, cid] : open) {
        const std::uint32_t order = store.find_by_exchange(eid);
        ASSERT_NE(order, SessionStore::kNullSlot);
        ASSERT_EQ(store.order_client_id(order), cid);
        ASSERT_EQ(store.find_open(slot, cid), order);
      }
      for (proto::OrderId eid = 1; eid < next_exchange; ++eid) {
        if (!open.contains(eid)) {
          ASSERT_EQ(store.find_by_exchange(eid), SessionStore::kNullSlot) << "eid " << eid;
        }
      }
    }
  }
}

// Sweep shards round up to a power of two and ids spread across them.
TEST(SessionStoreShards, RoundsUpAndSpreads) {
  SessionStore store(SessionStoreConfig{.shards = 5});
  EXPECT_EQ(store.shard_count(), 8u);
  std::set<std::uint32_t> seen;
  for (std::uint32_t id = 0; id < 1000; ++id) {
    const std::uint32_t shard = store.shard_of(id);
    ASSERT_LT(shard, store.shard_count());
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), 8u);  // 1000 hashed ids hit every one of 8 shards
}

}  // namespace
}  // namespace tsn
