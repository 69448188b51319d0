// Differential suite: the pooled SoA OrderBook vs the node-based
// ReferenceBook (the original std::map/std::list implementation it replaced
// on the hot path). Both books consume identical operation sequences —
// randomized soups across many seeds (submits mixed with replica-style
// rests, crossed books included), adversarial hand-built flows, and
// fuzz-style PITCH datagrams (including truncated/bit-flipped ones decoded
// through decode_batch) — and every observable must match exactly:
// submit and rest outcomes, executions (ids, prices, remainders, exec-id
// order), listener callback streams, best quotes, depth, open-order counts,
// and full for_each_order iteration order.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "book/order_book.hpp"
#include "proto/pitch.hpp"
#include "reference_book.hpp"
#include "sim/random.hpp"

namespace {

using namespace tsn;
using book::BestQuote;
using book::Execution;
using book::Order;
using book::OrderBook;
using book::ReferenceBook;

// Serializes every listener callback into a comparable event log.
class RecordingListener : public book::BookListener {
 public:
  void on_accept(const Order& order) override {
    log_ << "A id=" << order.id << " s=" << static_cast<char>(order.side)
         << " p=" << order.price << " q=" << order.quantity << '\n';
  }
  void on_execute(const Execution& e) override {
    log_ << "X r=" << e.resting_id << " a=" << e.aggressive_id << " q=" << e.quantity
         << " p=" << e.price << " x=" << e.exec_id << " rr=" << e.resting_remaining
         << " ar=" << e.aggressive_remaining << '\n';
  }
  void on_reduce(proto::OrderId id, proto::Quantity cancelled) override {
    log_ << "R id=" << id << " c=" << cancelled << '\n';
  }
  void on_delete(proto::OrderId id) override { log_ << "D id=" << id << '\n'; }
  void on_replace(proto::OrderId id, proto::Quantity q, proto::Price p) override {
    log_ << "M id=" << id << " q=" << q << " p=" << p << '\n';
  }

  [[nodiscard]] std::string take() {
    std::string out = log_.str();
    log_.str({});
    return out;
  }

 private:
  std::stringstream log_;
};

std::string quote_str(const BestQuote& q) {
  std::ostringstream out;
  out << "b=" << (q.bid_price ? *q.bid_price : -1) << "/" << q.bid_quantity
      << " a=" << (q.ask_price ? *q.ask_price : -1) << "/" << q.ask_quantity;
  return out.str();
}

std::string orders_str(const auto& book) {
  std::ostringstream out;
  book.for_each_order([&out](const Order& o) {
    out << o.id << ":" << static_cast<char>(o.side) << ":" << o.price << ":" << o.quantity
        << '\n';
  });
  return out.str();
}

// Drives both books through one mutation and asserts identical outcomes and
// identical observable state afterwards.
class BookPair {
 public:
  BookPair() : soa_(proto::Symbol{"DIFF"}, &soa_events_), ref_(proto::Symbol{"DIFF"}, &ref_events_) {}

  void submit(const Order& order, bool ioc = false) {
    const auto got = soa_.submit(order, ioc);
    const auto want = ref_.submit(order, ioc);
    ASSERT_EQ(static_cast<int>(got.result), static_cast<int>(want.result))
        << "submit id=" << order.id;
    ASSERT_EQ(got.filled, want.filled) << "submit id=" << order.id;
    check_events();
  }

  void rest(const Order& order) {
    ASSERT_EQ(soa_.rest(order), ref_.rest(order)) << "rest id=" << order.id;
    check_events();
  }

  void cancel(proto::OrderId id) {
    const auto got = soa_.cancel(id);
    const auto want = ref_.cancel(id);
    ASSERT_EQ(got, want) << "cancel id=" << id;
    check_events();
  }

  void reduce(proto::OrderId id, proto::Quantity q) {
    ASSERT_EQ(soa_.reduce(id, q), ref_.reduce(id, q)) << "reduce id=" << id;
    check_events();
  }

  void replace(proto::OrderId id, proto::Quantity q, proto::Price p) {
    ASSERT_EQ(soa_.replace(id, q, p), ref_.replace(id, q, p)) << "replace id=" << id;
    check_events();
  }

  // Full observable-state comparison (more expensive; called at checkpoints).
  void check_state() {
    ASSERT_EQ(quote_str(soa_.best()), quote_str(ref_.best()));
    ASSERT_EQ(soa_.open_orders(), ref_.open_orders());
    ASSERT_EQ(soa_.bid_levels(), ref_.bid_levels());
    ASSERT_EQ(soa_.ask_levels(), ref_.ask_levels());
    ASSERT_EQ(soa_.executions(), ref_.executions());
    ASSERT_EQ(orders_str(soa_), orders_str(ref_));
  }

  void check_depth(proto::Side side, proto::Price price) {
    ASSERT_EQ(soa_.depth_at(side, price), ref_.depth_at(side, price))
        << "depth side=" << static_cast<char>(side) << " price=" << price;
  }

  void check_find(proto::OrderId id) {
    const auto got = soa_.find(id);
    const auto want = ref_.find(id);
    ASSERT_EQ(got.has_value(), want.has_value()) << "find id=" << id;
    if (got) {
      ASSERT_EQ(got->id, want->id);
      ASSERT_EQ(got->side, want->side);
      ASSERT_EQ(got->price, want->price);
      ASSERT_EQ(got->quantity, want->quantity);
    }
  }

  [[nodiscard]] OrderBook& soa() noexcept { return soa_; }
  [[nodiscard]] ReferenceBook& ref() noexcept { return ref_; }

 private:
  void check_events() {
    ASSERT_EQ(soa_events_.take(), ref_events_.take());
  }

  RecordingListener soa_events_;
  RecordingListener ref_events_;
  OrderBook soa_;
  ReferenceBook ref_;
};

TEST(BookDifferentialTest, HandBuiltCrossingFlow) {
  BookPair pair;
  pair.submit({1, proto::Side::kBuy, 10'000, 100});
  pair.submit({2, proto::Side::kBuy, 10'100, 50});
  pair.submit({3, proto::Side::kSell, 10'200, 80});
  pair.check_state();
  // Marketable sell sweeps both bid levels and rests the remainder.
  pair.submit({4, proto::Side::kSell, 9'900, 200});
  pair.check_state();
  // Marketable buy partially fills against the 10'200 ask.
  pair.submit({5, proto::Side::kBuy, 10'300, 60});
  pair.check_state();
  pair.check_depth(proto::Side::kSell, 9'900);
  pair.check_depth(proto::Side::kSell, 10'200);
  pair.check_find(4);
  pair.check_find(1);  // fully filled -> gone from both
}

TEST(BookDifferentialTest, IocRemainderAndReplaceRematch) {
  BookPair pair;
  pair.submit({1, proto::Side::kSell, 10'000, 100});
  pair.submit({2, proto::Side::kSell, 10'000, 100});  // same level, FIFO behind 1
  // IOC buy for more than the level holds: fills 200, cancels the rest.
  pair.submit({3, proto::Side::kBuy, 10'000, 250}, true);
  pair.check_state();
  pair.submit({4, proto::Side::kSell, 10'500, 40});
  pair.submit({5, proto::Side::kBuy, 10'200, 70});
  // Replace the resting buy to a marketable price: cancels, re-enters, and
  // must rematch identically (losing time priority in both books).
  pair.replace(5, 70, 10'600);
  pair.check_state();
  // Reduce to zero deletes; reduce-up is rejected by both.
  pair.submit({6, proto::Side::kBuy, 9'800, 30});
  pair.reduce(6, 50);
  pair.reduce(6, 10);
  pair.reduce(6, 0);
  pair.check_state();
}

TEST(BookDifferentialTest, UnknownIdsAndDoubleCancel) {
  BookPair pair;
  pair.submit({1, proto::Side::kBuy, 10'000, 100});
  pair.cancel(99);
  pair.reduce(99, 10);
  pair.replace(99, 10, 10'000);
  pair.cancel(1);
  pair.cancel(1);  // second cancel: unknown in both
  pair.check_state();
}

TEST(BookDifferentialTest, CrossedRestsThenMatching) {
  BookPair pair;
  // A replica's crossed book: rests never match, whatever they cross.
  pair.rest({1, proto::Side::kBuy, 10'100, 100});
  pair.rest({2, proto::Side::kSell, 10'000, 60});
  pair.rest({3, proto::Side::kSell, 10'000, 30});
  pair.rest({4, proto::Side::kBuy, 10'100, 50});
  pair.rest({1, proto::Side::kSell, 9'000, 10});  // live id: refused by both
  pair.rest({5, proto::Side::kBuy, 9'000, 0});    // zero quantity: refused by both
  pair.check_state();
  // A submit into the crossed book matches the best opposite levels in
  // price-time order, as an exchange's book would.
  pair.submit({6, proto::Side::kSell, 10'050, 120});
  pair.submit({7, proto::Side::kBuy, 10'000, 200}, true);
  pair.replace(2, 60, 10'200);
  pair.check_state();
}

// The main soup: randomized operation mixes across many seeds, with a full
// state comparison every 64 operations and per-operation event/outcome
// comparison throughout.
TEST(BookDifferentialTest, RandomizedOperationSoup) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    BookPair pair;
    sim::Rng rng{seed};
    std::vector<proto::OrderId> live;
    proto::OrderId next_id = 1;
    for (int op = 0; op < 2'000; ++op) {
      const auto roll = rng.next_below(100);
      if (roll < 55 || live.empty()) {
        // Submit: mostly passive, sometimes crossing, sometimes IOC. A
        // quarter are rests instead, which leave a crossing order crossed
        // (and sometimes reuse a live id or carry no quantity).
        Order order;
        order.id = next_id++;
        order.side = (rng.next_below(2) != 0) ? proto::Side::kBuy : proto::Side::kSell;
        const auto band = rng.next_below(40);
        // Overlapping price bands make crossing common but not constant.
        order.price = 9'500 + static_cast<proto::Price>(band) * 25 +
                      (order.side == proto::Side::kBuy ? 0 : 250);
        order.quantity = static_cast<proto::Quantity>(1 + rng.next_below(300));
        if (rng.next_below(4) == 0) {
          if (!live.empty() && rng.next_below(16) == 0) {
            order.id = live[rng.next_below(live.size())];
          } else if (rng.next_below(16) == 0) {
            order.quantity = 0;
          }
          pair.rest(order);
          if (order.id == next_id - 1 && order.quantity > 0) live.push_back(order.id);
        } else {
          const bool ioc = rng.next_below(8) == 0;
          pair.submit(order, ioc);
          if (!ioc) live.push_back(order.id);
        }
      } else if (roll < 75) {
        const auto pick = rng.next_below(live.size());
        pair.cancel(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (roll < 88) {
        const auto pick = rng.next_below(live.size());
        pair.reduce(live[pick], static_cast<proto::Quantity>(rng.next_below(200)));
      } else {
        const auto pick = rng.next_below(live.size());
        const auto price = 9'400 + static_cast<proto::Price>(rng.next_below(45)) * 25;
        pair.replace(live[pick], static_cast<proto::Quantity>(1 + rng.next_below(250)),
                     price);
      }
      if ((op & 63) == 0) {
        pair.check_state();
        pair.check_find(static_cast<proto::OrderId>(1 + rng.next_below(next_id)));
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    pair.check_state();
    for (proto::Price p = 9'400; p <= 10'800; p += 25) {
      pair.check_depth(proto::Side::kBuy, p);
      pair.check_depth(proto::Side::kSell, p);
    }
  }
}

// Slab/freelist stress: drain the book completely and refill it repeatedly
// so freed slots are recycled in bulk, then verify observables still match.
TEST(BookDifferentialTest, DrainAndRefillRecyclesSlots) {
  BookPair pair;
  proto::OrderId next_id = 1;
  for (int round = 0; round < 5; ++round) {
    std::vector<proto::OrderId> ids;
    for (int i = 0; i < 300; ++i) {
      Order order;
      order.id = next_id++;
      order.side = (i % 2 != 0) ? proto::Side::kBuy : proto::Side::kSell;
      order.price = (order.side == proto::Side::kBuy ? 9'000 : 11'000) +
                    static_cast<proto::Price>(i % 37) * 50;
      order.quantity = 10 + static_cast<proto::Quantity>(i % 90);
      pair.submit(order);
      ids.push_back(order.id);
    }
    pair.check_state();
    // Cancel in a different order than insertion (stripes) to fragment the
    // freelists before the next refill.
    for (std::size_t stripe = 0; stripe < 3; ++stripe) {
      for (std::size_t i = stripe; i < ids.size(); i += 3) pair.cancel(ids[i]);
    }
    pair.check_state();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Applies one decoded PITCH datagram to both books the way the replay lane
// does: adds rest, executes/reduces shrink or cancel, modifies cancel and
// rest again, deletes cancel. Everything else is a no-op.
template <typename Book>
void apply_batch_row(Book& book, const proto::pitch::DecodedBatch& batch, std::size_t i) {
  using proto::pitch::DecodedKind;
  switch (batch.kind[i]) {
    case DecodedKind::kAddOrder:
      (void)book.rest(Order{batch.order_id[i], batch.side[i], batch.price[i], batch.quantity[i]});
      break;
    case DecodedKind::kOrderExecuted:
    case DecodedKind::kReduceSize: {
      const auto resting = book.find(batch.order_id[i]);
      if (!resting) break;
      const proto::Quantity cut = std::min(batch.quantity[i], resting->quantity);
      if (cut == resting->quantity) {
        (void)book.cancel(batch.order_id[i]);
      } else {
        (void)book.reduce(batch.order_id[i], resting->quantity - cut);
      }
      break;
    }
    case DecodedKind::kModifyOrder: {
      const auto resting = book.find(batch.order_id[i]);
      if (!resting) break;
      (void)book.cancel(batch.order_id[i]);
      (void)book.rest(Order{batch.order_id[i], resting->side, batch.price[i], batch.quantity[i]});
      break;
    }
    case DecodedKind::kDeleteOrder:
      (void)book.cancel(batch.order_id[i]);
      break;
    default:
      break;
  }
}

// Fuzz-derived lane: build random PITCH datagrams, corrupt some of them
// (truncation and bit flips), decode through decode_batch, and apply the
// surviving prefix to both books. The corruption is applied identically to
// both, so the books must stay identical no matter what the decoder kept.
TEST(BookDifferentialTest, FuzzDerivedPitchSequences) {
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    BookPair pair;
    sim::Rng rng{seed};
    proto::OrderId next_id = 1;
    for (int datagram = 0; datagram < 40; ++datagram) {
      std::vector<std::byte> payload;
      proto::pitch::FrameBuilder builder{
          1, 1458,
          [&payload](std::vector<std::byte> p, const proto::pitch::UnitHeader&) {
            payload = std::move(p);
          }};
      const auto messages = 1 + rng.next_below(30);
      for (std::uint64_t m = 0; m < messages; ++m) {
        const auto kind = rng.next_below(6);
        const auto target = static_cast<proto::OrderId>(1 + rng.next_below(next_id));
        if (kind < 3) {
          proto::pitch::AddOrder add;
          add.order_id = next_id++;
          add.side = (rng.next_below(2) != 0) ? proto::Side::kBuy : proto::Side::kSell;
          add.price = 9'000 + static_cast<proto::Price>(rng.next_below(60)) * 100;
          add.quantity = static_cast<proto::Quantity>(1 + rng.next_below(500));
          add.symbol = proto::Symbol{"DIFF"};
          builder.append(proto::pitch::Message{add});
        } else if (kind == 3) {
          builder.append(proto::pitch::Message{proto::pitch::OrderExecuted{
              0, target, static_cast<proto::Quantity>(1 + rng.next_below(200)), m + 1}});
        } else if (kind == 4) {
          builder.append(proto::pitch::Message{proto::pitch::ModifyOrder{
              0, target, static_cast<proto::Quantity>(1 + rng.next_below(300)),
              9'000 + static_cast<proto::Price>(rng.next_below(60)) * 100, 0}});
        } else {
          builder.append(proto::pitch::Message{proto::pitch::DeleteOrder{0, target}});
        }
      }
      builder.flush();
      // Corrupt a third of the datagrams: truncate or flip a byte. The
      // decoder keeps the valid prefix; both books see exactly that prefix.
      if (rng.next_below(3) == 0 && payload.size() > proto::pitch::kUnitHeaderSize + 2) {
        if (rng.next_below(2) == 0) {
          payload.resize(proto::pitch::kUnitHeaderSize +
                         rng.next_below(payload.size() - proto::pitch::kUnitHeaderSize));
        } else {
          const auto at = rng.next_below(payload.size());
          payload[at] ^= std::byte{static_cast<unsigned char>(1u << rng.next_below(8))};
        }
      }
      proto::pitch::DecodedBatch batch;
      (void)proto::pitch::decode_batch(payload, batch);
      for (std::size_t i = 0; i < batch.count; ++i) {
        apply_batch_row(pair.soa(), batch, i);
        apply_batch_row(pair.ref(), batch, i);
      }
      pair.check_state();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
