#include "trading/compliance.hpp"

#include <gtest/gtest.h>

namespace tsn::trading {
namespace {

using proto::Side;
using proto::Symbol;
const Symbol kSym{"ACME"};

TEST(Compliance, NbboAggregatesAcrossVenues) {
  MarketStateMonitor monitor;
  monitor.set_quote(1, kSym, Side::kBuy, proto::price_from_dollars(99.98));
  monitor.set_quote(1, kSym, Side::kSell, proto::price_from_dollars(100.04));
  monitor.set_quote(2, kSym, Side::kBuy, proto::price_from_dollars(100.00));
  monitor.set_quote(2, kSym, Side::kSell, proto::price_from_dollars(100.02));
  const auto best = monitor.nbbo(kSym);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->bid, proto::price_from_dollars(100.00));
  EXPECT_EQ(best->bid_venue, 2);
  EXPECT_EQ(best->ask, proto::price_from_dollars(100.02));
  EXPECT_EQ(best->ask_venue, 2);
  EXPECT_FALSE(best->locked());
  EXPECT_FALSE(best->crossed());
}

TEST(Compliance, UnknownSymbolHasNoNbbo) {
  MarketStateMonitor monitor;
  EXPECT_FALSE(monitor.nbbo(kSym).has_value());
}

TEST(Compliance, DetectsLockedMarket) {
  MarketStateMonitor monitor;
  monitor.set_quote(1, kSym, Side::kSell, proto::price_from_dollars(100.00));
  monitor.set_quote(2, kSym, Side::kBuy, proto::price_from_dollars(100.00));
  EXPECT_TRUE(monitor.nbbo(kSym)->locked());
  EXPECT_FALSE(monitor.nbbo(kSym)->crossed());
  EXPECT_EQ(monitor.stats().locked_transitions, 1u);
  // Leaving and re-entering counts again.
  monitor.set_quote(2, kSym, Side::kBuy, proto::price_from_dollars(99.99));
  EXPECT_FALSE(monitor.nbbo(kSym)->locked());
  monitor.set_quote(2, kSym, Side::kBuy, proto::price_from_dollars(100.00));
  EXPECT_EQ(monitor.stats().locked_transitions, 2u);
}

TEST(Compliance, DetectsCrossedMarket) {
  MarketStateMonitor monitor;
  monitor.set_quote(1, kSym, Side::kSell, proto::price_from_dollars(100.00));
  monitor.set_quote(2, kSym, Side::kBuy, proto::price_from_dollars(100.05));
  EXPECT_TRUE(monitor.nbbo(kSym)->crossed());
  EXPECT_EQ(monitor.stats().crossed_transitions, 1u);
}

TEST(Compliance, SameVenueTouchIsNotLocked) {
  // A single venue's own book at equal prices would simply trade; "locked"
  // is a cross-venue condition.
  MarketStateMonitor monitor;
  monitor.set_quote(1, kSym, Side::kBuy, proto::price_from_dollars(100.00));
  monitor.set_quote(1, kSym, Side::kSell, proto::price_from_dollars(100.00));
  EXPECT_FALSE(monitor.nbbo(kSym)->locked());
  EXPECT_EQ(monitor.stats().locked_transitions, 0u);
}

TEST(Compliance, NormUpdateAdapterMovesQuotes) {
  MarketStateMonitor monitor;
  proto::norm::Update update;
  update.kind = proto::norm::UpdateKind::kBboUpdate;
  update.exchange_id = 3;
  update.symbol = kSym;
  update.side = Side::kBuy;
  update.price = proto::price_from_dollars(50.00);
  update.quantity = 100;
  monitor.on_update(update);
  const auto best = monitor.nbbo(kSym);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->bid, proto::price_from_dollars(50.00));
  EXPECT_EQ(best->bid_venue, 3);
  // Zero quantity clears the side, and with it venue 3's only quote.
  update.quantity = 0;
  monitor.on_update(update);
  EXPECT_FALSE(monitor.nbbo(kSym).has_value());
}

TEST(Compliance, TradeThroughDetection) {
  MarketStateMonitor monitor;
  monitor.set_quote(1, kSym, Side::kBuy, proto::price_from_dollars(100.00));
  monitor.set_quote(1, kSym, Side::kSell, proto::price_from_dollars(100.05));
  proto::norm::Update print;
  print.kind = proto::norm::UpdateKind::kTradePrint;
  print.exchange_id = 2;
  print.symbol = kSym;
  print.quantity = 100;
  // Inside the NBBO: fine.
  print.price = proto::price_from_dollars(100.02);
  monitor.on_update(print);
  EXPECT_EQ(monitor.stats().trade_throughs, 0u);
  // Below the best bid: a trade-through.
  print.price = proto::price_from_dollars(99.95);
  monitor.on_update(print);
  EXPECT_EQ(monitor.stats().trade_throughs, 1u);
  // Above the best ask: also a trade-through.
  print.price = proto::price_from_dollars(100.10);
  monitor.on_update(print);
  EXPECT_EQ(monitor.stats().trade_throughs, 2u);
}

}  // namespace
}  // namespace tsn::trading
