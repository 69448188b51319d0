// Background market activity: the other participants.
//
// Drives an Exchange's books with a randomized stream of adds, cancels,
// replaces and marketable orders so that its feed carries realistic market
// data (the feed a trading firm consumes is almost entirely *other* firms'
// activity). Rates can be modulated over time to reproduce intraday shape
// and bursts; symbol selection is Zipf-skewed like real volume.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "exchange/exchange.hpp"
#include "sim/random.hpp"

namespace tsn::exchange {

struct ActivityConfig {
  // Aggregate book-operation rate (events/second) before modulation.
  double events_per_second = 50'000.0;
  // Optional time-varying multiplier (intraday profile / bursts); default 1.
  // tsn-lint: allow(unset-option) the drill bursts ramp activity; Design runs are flat
  std::function<double(sim::Time)> rate_multiplier;
  // Weight of marketable IOC orders that trade, against the fixed add,
  // cancel and replace weights (normalized internally).
  double cross_weight = 0.08;
};

struct ActivityStats {
  std::uint64_t adds = 0;
  std::uint64_t cancels = 0;
  std::uint64_t replaces = 0;
  std::uint64_t crosses = 0;
};

class MarketActivityDriver {
 public:
  MarketActivityDriver(Exchange& exchange, ActivityConfig config, std::uint64_t seed);

  // Begins generating events now and stops at `end`.
  void run_until(sim::Time end);

  [[nodiscard]] const ActivityStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t resting_orders() const noexcept { return resting_.size(); }

 private:
  struct Resting {
    proto::OrderId id = 0;
    proto::Symbol symbol;
  };

  void schedule_next();
  void fire();
  void do_add();
  void do_cancel();
  void do_replace();
  void do_cross();
  [[nodiscard]] const SymbolSpec& pick_symbol();
  [[nodiscard]] proto::Price& mid_of(const proto::Symbol& symbol, proto::Price reference);

  Exchange& exchange_;
  ActivityConfig config_;
  sim::Rng rng_;
  sim::Time end_ = sim::Time::zero();
  std::vector<Resting> resting_;
  std::unordered_map<proto::Symbol, proto::Price> mids_;
  ActivityStats stats_;
};

}  // namespace tsn::exchange
