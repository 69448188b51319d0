#include "book/order_book.hpp"

#include <gtest/gtest.h>

namespace tsn::book {
namespace {

struct EventLog final : BookListener {
  std::vector<Order> accepts;
  std::vector<Execution> executes;
  std::vector<std::pair<OrderId, Quantity>> reduces;
  std::vector<OrderId> deletes;
  std::vector<OrderId> replaces;

  void on_accept(const Order& order) override { accepts.push_back(order); }
  void on_execute(const Execution& execution) override { executes.push_back(execution); }
  void on_reduce(OrderId id, Quantity cancelled) override { reduces.emplace_back(id, cancelled); }
  void on_delete(OrderId id) override { deletes.push_back(id); }
  void on_replace(OrderId id, Quantity, Price) override { replaces.push_back(id); }
};

struct BookFixture : ::testing::Test {
  EventLog log;
  OrderBook book{Symbol{"ACME"}, &log};

  using SR = OrderBook::SubmitResult;
};

TEST_F(BookFixture, RestingOrderIsAccepted) {
  const auto outcome = book.submit({1, Side::kBuy, 10'000, 100});
  EXPECT_EQ(outcome.result, SR::kRested);
  EXPECT_EQ(outcome.filled, 0u);
  ASSERT_EQ(log.accepts.size(), 1u);
  EXPECT_EQ(log.accepts[0].id, 1u);
  EXPECT_EQ(book.open_orders(), 1u);
  const auto best = book.best();
  EXPECT_EQ(best.bid_price, 10'000);
  EXPECT_EQ(best.bid_quantity, 100u);
  EXPECT_FALSE(best.ask_price.has_value());
}

TEST_F(BookFixture, CrossingOrdersMatchAtRestingPrice) {
  book.submit({1, Side::kSell, 10'100, 100});
  const auto outcome = book.submit({2, Side::kBuy, 10'200, 100});  // through the ask
  EXPECT_EQ(outcome.result, SR::kFilled);
  EXPECT_EQ(outcome.filled, 100u);
  ASSERT_EQ(log.executes.size(), 1u);
  EXPECT_EQ(log.executes[0].price, 10'100);  // resting price, not the aggressive one
  EXPECT_EQ(log.executes[0].resting_id, 1u);
  EXPECT_EQ(log.executes[0].aggressive_id, 2u);
  EXPECT_EQ(book.open_orders(), 0u);
}

TEST_F(BookFixture, PriceTimePriority) {
  book.submit({1, Side::kSell, 10'100, 100});
  book.submit({2, Side::kSell, 10'100, 100});  // same price, later time
  book.submit({3, Side::kSell, 10'050, 100});  // better price
  book.submit({4, Side::kBuy, 10'200, 250});
  ASSERT_EQ(log.executes.size(), 3u);
  EXPECT_EQ(log.executes[0].resting_id, 3u);  // best price first
  EXPECT_EQ(log.executes[1].resting_id, 1u);  // then FIFO at 10100
  EXPECT_EQ(log.executes[2].resting_id, 2u);
  EXPECT_EQ(log.executes[2].quantity, 50u);
}

TEST_F(BookFixture, PartialFillRestsRemainder) {
  book.submit({1, Side::kSell, 10'100, 60});
  const auto outcome = book.submit({2, Side::kBuy, 10'100, 100});
  EXPECT_EQ(outcome.result, SR::kPartialFill);
  EXPECT_EQ(outcome.filled, 60u);
  const auto best = book.best();
  EXPECT_EQ(best.bid_price, 10'100);
  EXPECT_EQ(best.bid_quantity, 40u);
}

TEST_F(BookFixture, NonCrossingOrdersCoexist) {
  book.submit({1, Side::kBuy, 10'000, 100});
  book.submit({2, Side::kSell, 10'100, 100});
  EXPECT_TRUE(log.executes.empty());
  const auto best = book.best();
  EXPECT_EQ(best.bid_price, 10'000);
  EXPECT_EQ(best.ask_price, 10'100);
}

TEST_F(BookFixture, IocRemainderEvaporates) {
  book.submit({1, Side::kSell, 10'100, 50});
  const auto outcome = book.submit({2, Side::kBuy, 10'100, 100}, /*ioc=*/true);
  EXPECT_EQ(outcome.result, SR::kCancelled);
  EXPECT_EQ(outcome.filled, 50u);
  EXPECT_EQ(book.open_orders(), 0u);
  EXPECT_FALSE(book.best().bid_price.has_value());
}

TEST_F(BookFixture, IocWithNoLiquidityFillsNothing) {
  const auto outcome = book.submit({1, Side::kBuy, 10'100, 100}, /*ioc=*/true);
  EXPECT_EQ(outcome.result, SR::kCancelled);
  EXPECT_EQ(outcome.filled, 0u);
  EXPECT_TRUE(log.accepts.empty());
}

TEST_F(BookFixture, DuplicateIdRejected) {
  book.submit({1, Side::kBuy, 10'000, 100});
  const auto outcome = book.submit({1, Side::kBuy, 9'900, 100});
  EXPECT_EQ(outcome.result, SR::kRejectedDuplicate);
  EXPECT_EQ(book.open_orders(), 1u);
}

TEST_F(BookFixture, RestNeverMatches) {
  EXPECT_TRUE(book.rest({1, Side::kBuy, 10'100, 100}));
  // Crossing the bid: a replica holds both orders rather than trade them.
  EXPECT_TRUE(book.rest({2, Side::kSell, 10'000, 40}));
  EXPECT_TRUE(book.rest({3, Side::kBuy, 10'100, 20}));  // behind 1 at its level
  EXPECT_TRUE(log.executes.empty());
  EXPECT_EQ(log.accepts.size(), 3u);
  const auto best = book.best();
  EXPECT_EQ(best.bid_price, 10'100);
  EXPECT_EQ(best.bid_quantity, 120u);
  EXPECT_EQ(best.ask_price, 10'000);
  // A live id or a zero quantity leaves the book as it is.
  EXPECT_FALSE(book.rest({1, Side::kSell, 9'000, 5}));
  EXPECT_FALSE(book.rest({4, Side::kBuy, 10'200, 0}));
  EXPECT_EQ(book.open_orders(), 3u);
  EXPECT_EQ(book.find(1)->price, 10'100);
  EXPECT_EQ(book.executions(), 0u);
}

TEST_F(BookFixture, CancelRemovesOrderAndReportsQuantity) {
  book.submit({1, Side::kBuy, 10'000, 100});
  const auto cancelled = book.cancel(1);
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(*cancelled, 100u);
  EXPECT_EQ(book.open_orders(), 0u);
  ASSERT_EQ(log.deletes.size(), 1u);
  EXPECT_FALSE(book.cancel(1).has_value());  // idempotence: second cancel misses
}

TEST_F(BookFixture, CancelAfterFillMisses) {
  // The §2 race: the order traded before the cancel arrived.
  book.submit({1, Side::kSell, 10'100, 100});
  book.submit({2, Side::kBuy, 10'100, 100});
  EXPECT_FALSE(book.cancel(1).has_value());
}

TEST_F(BookFixture, ReduceKeepsPriority) {
  book.submit({1, Side::kSell, 10'100, 100});
  book.submit({2, Side::kSell, 10'100, 100});
  EXPECT_TRUE(book.reduce(1, 40));
  ASSERT_EQ(log.reduces.size(), 1u);
  EXPECT_EQ(log.reduces[0].second, 60u);  // cancelled amount
  book.submit({3, Side::kBuy, 10'100, 50});
  // Order 1 still has priority despite the reduction.
  ASSERT_EQ(log.executes.size(), 2u);
  EXPECT_EQ(log.executes[0].resting_id, 1u);
  EXPECT_EQ(log.executes[0].quantity, 40u);
  EXPECT_EQ(log.executes[1].resting_id, 2u);
  EXPECT_EQ(log.executes[1].quantity, 10u);
}

TEST_F(BookFixture, ReduceRejectsIncreasesAndUnknown) {
  book.submit({1, Side::kBuy, 10'000, 100});
  EXPECT_FALSE(book.reduce(1, 100));  // not a decrease
  EXPECT_FALSE(book.reduce(1, 200));
  EXPECT_FALSE(book.reduce(99, 10));
  EXPECT_TRUE(book.reduce(1, 0));  // reduce-to-zero cancels
  EXPECT_EQ(book.open_orders(), 0u);
}

TEST_F(BookFixture, ReplaceLosesPriorityAndCanTrade) {
  book.submit({1, Side::kSell, 10'100, 100});
  book.submit({2, Side::kBuy, 10'000, 100});
  // Replace the buy upward so it crosses the ask.
  EXPECT_TRUE(book.replace(2, 100, 10'100));
  ASSERT_EQ(log.replaces.size(), 1u);
  ASSERT_EQ(log.executes.size(), 1u);
  EXPECT_EQ(log.executes[0].aggressive_id, 2u);
  EXPECT_FALSE(book.replace(77, 1, 1));  // unknown
}

TEST_F(BookFixture, DepthAtAggregatesLevel) {
  book.submit({1, Side::kBuy, 10'000, 100});
  book.submit({2, Side::kBuy, 10'000, 150});
  book.submit({3, Side::kBuy, 9'900, 50});
  EXPECT_EQ(book.depth_at(Side::kBuy, 10'000), 250u);
  EXPECT_EQ(book.depth_at(Side::kBuy, 9'900), 50u);
  EXPECT_EQ(book.depth_at(Side::kBuy, 9'800), 0u);
  EXPECT_EQ(book.depth_at(Side::kSell, 10'000), 0u);
}

TEST_F(BookFixture, ExecutionsCarryRemainders) {
  book.submit({1, Side::kSell, 10'100, 100});
  book.submit({2, Side::kBuy, 10'100, 30});
  ASSERT_EQ(log.executes.size(), 1u);
  EXPECT_EQ(log.executes[0].resting_remaining, 70u);
  EXPECT_EQ(log.executes[0].aggressive_remaining, 0u);
}

TEST_F(BookFixture, ExecIdsAreUniqueAndMonotonic) {
  book.submit({1, Side::kSell, 10'100, 30});
  book.submit({2, Side::kSell, 10'100, 30});
  book.submit({3, Side::kBuy, 10'100, 60});
  ASSERT_EQ(log.executes.size(), 2u);
  EXPECT_LT(log.executes[0].exec_id, log.executes[1].exec_id);
  EXPECT_EQ(book.executions(), 2u);
}

// Property-style sweep: a sequence of random operations never corrupts
// book invariants (bid < ask when both exist; open_orders matches accepted
// minus removed).
class BookPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BookPropertyTest, InvariantsHoldUnderRandomWorkload) {
  OrderBook book{Symbol{"PROP"}};
  std::uint64_t state = GetParam();
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<OrderId> live;
  for (int op = 0; op < 5'000; ++op) {
    const auto roll = next() % 100;
    if (roll < 60 || live.empty()) {
      const OrderId id = 1'000 + static_cast<OrderId>(op);
      const auto side = (next() & 1) != 0 ? Side::kBuy : Side::kSell;
      const Price price = 9'000 + static_cast<Price>(next() % 2'000);
      const auto qty = static_cast<Quantity>(1 + next() % 500);
      const auto outcome = book.submit({id, side, price, qty}, (next() % 10) == 0);
      if (outcome.result == OrderBook::SubmitResult::kRested ||
          outcome.result == OrderBook::SubmitResult::kPartialFill) {
        live.push_back(id);
      }
    } else {
      const auto index = next() % live.size();
      (void)book.cancel(live[index]);
      live[index] = live.back();
      live.pop_back();
    }
    const auto best = book.best();
    if (best.bid_price && best.ask_price) {
      ASSERT_LT(*best.bid_price, *best.ask_price) << "book crossed at op " << op;
    }
    ASSERT_LE(book.open_orders(), live.size() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BookPropertyTest,
                         ::testing::Values(0x12345678ULL, 0xdeadbeefULL, 0xfeedf00dULL,
                                           0x31415926ULL, 0x27182818ULL));

}  // namespace
}  // namespace tsn::book
