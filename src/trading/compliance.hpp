// Cross-market compliance monitoring (§4.2).
//
// "The US Securities and Exchange Commission (SEC) imposes rules that
// prohibit advertising prices that 'lock' (where a bid on one exchange
// equals the asking price on another exchange) or 'cross' (where a bid on
// one exchange is higher than the asking price on another exchange), as
// well as 'trading through' (trading at prices worse than those advertised
// at other markets)." Enforcing these requires exactly the broad internal
// communication the paper says cloud designs struggle with: every venue's
// best prices, everywhere, now.
//
// MarketStateMonitor maintains per-venue best bid/offer per symbol (fed
// from normalized updates), derives the NBBO, and counts entries into
// locked and crossed states and trade-throughs.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "proto/norm.hpp"
#include "proto/types.hpp"

namespace tsn::trading {

struct VenueQuote {
  proto::Price bid = 0;  // 0 = no bid
  proto::Price ask = 0;  // 0 = no ask
};

struct Nbbo {
  proto::Price bid = 0;
  proto::Price ask = 0;
  std::uint8_t bid_venue = 0;
  std::uint8_t ask_venue = 0;

  [[nodiscard]] bool two_sided() const noexcept { return bid > 0 && ask > 0; }
  // Locked: best bid equals best ask across *different* venues (within one
  // venue that would simply trade).
  [[nodiscard]] bool locked() const noexcept {
    return two_sided() && bid == ask && bid_venue != ask_venue;
  }
  [[nodiscard]] bool crossed() const noexcept {
    return two_sided() && bid > ask && bid_venue != ask_venue;
  }
};

struct ComplianceStats {
  std::uint64_t quote_updates = 0;
  std::uint64_t locked_transitions = 0;   // entering a locked state
  std::uint64_t crossed_transitions = 0;  // entering a crossed state
  std::uint64_t trade_throughs = 0;
};

class MarketStateMonitor {
 public:
  // Direct quote update (venue's best on one side; 0 clears the side).
  void set_quote(std::uint8_t venue, const proto::Symbol& symbol, proto::Side side,
                 proto::Price price);

  // Adapter for normalized feeds: BBO-affecting updates move the venue's
  // displayed side; trade prints are checked for trade-throughs against
  // the prevailing NBBO.
  void on_update(const proto::norm::Update& update);

  [[nodiscard]] std::optional<Nbbo> nbbo(const proto::Symbol& symbol) const;

  [[nodiscard]] const ComplianceStats& stats() const noexcept { return stats_; }

 private:
  struct SymbolState {
    std::unordered_map<std::uint8_t, VenueQuote> venues;
    bool was_locked = false;
    bool was_crossed = false;
  };

  void refresh_transitions(SymbolState& state, const proto::Symbol& symbol);
  [[nodiscard]] static std::optional<Nbbo> nbbo_of(const SymbolState& state);

  std::unordered_map<proto::Symbol, SymbolState> symbols_;
  ComplianceStats stats_;
};

}  // namespace tsn::trading
