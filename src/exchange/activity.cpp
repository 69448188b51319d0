#include "exchange/activity.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace tsn::exchange {

namespace {

// Symbol popularity skew.
constexpr double kZipfExponent = 1.1;
// Operation mix beside ActivityConfig::cross_weight (normalized internally).
constexpr double kAddWeight = 0.55;
constexpr double kCancelWeight = 0.25;
constexpr double kReplaceWeight = 0.12;
constexpr proto::Quantity kLotSize = 100;
constexpr std::uint32_t kMaxLots = 10;
constexpr proto::Price kTick = 100;  // $0.01 in fixed point
constexpr int kMaxSpreadTicks = 10;
constexpr std::size_t kMaxOpenOrders = 50'000;

}  // namespace

MarketActivityDriver::MarketActivityDriver(Exchange& exchange, ActivityConfig config,
                                           std::uint64_t seed)
    : exchange_(exchange), config_(std::move(config)), rng_(seed) {
  if (exchange_.symbols().empty()) throw std::invalid_argument{"exchange lists no symbols"};
  if (config_.events_per_second <= 0.0) throw std::invalid_argument{"rate must be positive"};
}

void MarketActivityDriver::run_until(sim::Time end) {
  end_ = end;
  schedule_next();
}

void MarketActivityDriver::schedule_next() {
  double rate = config_.events_per_second;
  if (config_.rate_multiplier) rate *= config_.rate_multiplier(exchange_.engine().now());
  if (rate <= 0.0) rate = 1.0;  // quiet period: crawl rather than stall
  const double dt_seconds = rng_.exponential(1.0 / rate);
  const sim::Time at = exchange_.engine().now() + sim::seconds(dt_seconds);
  if (at > end_) return;
  exchange_.engine().schedule_at(at, [this] { fire(); });
}

void MarketActivityDriver::fire() {
  // When the resting population hits its cap, force drains.
  if (resting_.size() >= kMaxOpenOrders) {
    do_cancel();
    schedule_next();
    return;
  }
  const std::array<double, 4> weights{kAddWeight, kCancelWeight, kReplaceWeight,
                                      config_.cross_weight};
  switch (rng_.weighted_index(weights)) {
    case 0:
      do_add();
      break;
    case 1:
      do_cancel();
      break;
    case 2:
      do_replace();
      break;
    default:
      do_cross();
      break;
  }
  schedule_next();
}

const SymbolSpec& MarketActivityDriver::pick_symbol() {
  const auto& symbols = exchange_.symbols();
  const auto rank = rng_.zipf(symbols.size(), kZipfExponent);
  return symbols[static_cast<std::size_t>(rank - 1)];
}

proto::Price& MarketActivityDriver::mid_of(const proto::Symbol& symbol,
                                           proto::Price reference) {
  auto [it, inserted] = mids_.try_emplace(symbol, reference);
  if (!inserted && rng_.bernoulli(0.05)) {
    // Gentle random walk keeps prices live without trending off to zero.
    it->second += rng_.bernoulli(0.5) ? kTick : -kTick;
    it->second = std::max<proto::Price>(it->second, kTick * 10);
  }
  return it->second;
}

void MarketActivityDriver::do_add() {
  ++stats_.adds;
  const SymbolSpec& spec = pick_symbol();
  const proto::Price mid = mid_of(spec.symbol, spec.reference_price);
  const auto side = rng_.bernoulli(0.5) ? proto::Side::kBuy : proto::Side::kSell;
  const auto offset_ticks = static_cast<proto::Price>(rng_.uniform_int(1, kMaxSpreadTicks));
  const proto::Price price = side == proto::Side::kBuy ? mid - offset_ticks * kTick
                                                       : mid + offset_ticks * kTick;
  const auto quantity = static_cast<proto::Quantity>(
      kLotSize * static_cast<proto::Quantity>(rng_.uniform_int(1, kMaxLots)));
  const proto::OrderId id = exchange_.next_order_id();
  const auto outcome = exchange_.book(spec.symbol).submit({id, side, price, quantity});
  if (outcome.result == book::OrderBook::SubmitResult::kRested ||
      outcome.result == book::OrderBook::SubmitResult::kPartialFill) {
    resting_.push_back({id, spec.symbol});
  }
}

void MarketActivityDriver::do_cancel() {
  if (resting_.empty()) return do_add();
  ++stats_.cancels;
  const auto index = static_cast<std::size_t>(rng_.next_below(resting_.size()));
  const Resting victim = resting_[index];
  resting_[index] = resting_.back();
  resting_.pop_back();
  // The order may already have been filled; a miss is normal.
  (void)exchange_.book(victim.symbol).cancel(victim.id);
}

void MarketActivityDriver::do_replace() {
  if (resting_.empty()) return do_add();
  ++stats_.replaces;
  const auto index = static_cast<std::size_t>(rng_.next_below(resting_.size()));
  const Resting& target = resting_[index];
  auto& book = exchange_.book(target.symbol);
  const auto best = book.best();
  const proto::Price mid = mid_of(target.symbol, best.bid_price.value_or(
                                                     best.ask_price.value_or(kTick * 100)));
  const auto offset_ticks = static_cast<proto::Price>(rng_.uniform_int(1, kMaxSpreadTicks));
  const auto side = rng_.bernoulli(0.5) ? proto::Side::kBuy : proto::Side::kSell;
  const proto::Price price = side == proto::Side::kBuy ? mid - offset_ticks * kTick
                                                       : mid + offset_ticks * kTick;
  const auto quantity = static_cast<proto::Quantity>(
      kLotSize * static_cast<proto::Quantity>(rng_.uniform_int(1, kMaxLots)));
  (void)book.replace(target.id, quantity, price);
}

void MarketActivityDriver::do_cross() {
  ++stats_.crosses;
  const SymbolSpec& spec = pick_symbol();
  auto& book = exchange_.book(spec.symbol);
  const auto best = book.best();
  // Hit the touch: buy at the ask or sell at the bid, IOC so nothing rests.
  proto::Side side;
  proto::Price price;
  if (best.ask_price && (!best.bid_price || rng_.bernoulli(0.5))) {
    side = proto::Side::kBuy;
    price = *best.ask_price;
  } else if (best.bid_price) {
    side = proto::Side::kSell;
    price = *best.bid_price;
  } else {
    return do_add();  // empty book: seed liquidity instead
  }
  const auto quantity = static_cast<proto::Quantity>(
      kLotSize * static_cast<proto::Quantity>(rng_.uniform_int(1, kMaxLots)));
  (void)book.submit({exchange_.next_order_id(), side, price, quantity}, true);
}

}  // namespace tsn::exchange
