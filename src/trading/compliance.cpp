#include "trading/compliance.hpp"

#include <algorithm>
#include <vector>

namespace tsn::trading {

void MarketStateMonitor::set_quote(std::uint8_t venue, const proto::Symbol& symbol,
                                   proto::Side side, proto::Price price) {
  ++stats_.quote_updates;
  SymbolState& state = symbols_[symbol];
  VenueQuote& quote = state.venues[venue];
  if (side == proto::Side::kBuy) {
    quote.bid = price;
  } else {
    quote.ask = price;
  }
  refresh_transitions(state, symbol);
}

void MarketStateMonitor::on_update(const proto::norm::Update& update) {
  using proto::norm::UpdateKind;
  switch (update.kind) {
    case UpdateKind::kBboUpdate:
      set_quote(update.exchange_id, update.symbol, update.side,
                update.quantity == 0 ? 0 : update.price);
      break;
    case UpdateKind::kTradePrint: {
      // Trade-through check: a print strictly outside the prevailing NBBO.
      const auto best = nbbo(update.symbol);
      if (best && best->two_sided() && !best->locked() && !best->crossed()) {
        if (update.price < best->bid || update.price > best->ask) {
          ++stats_.trade_throughs;
        }
      }
      break;
    }
    default:
      break;  // depth changes below the top don't move displayed quotes
  }
}

std::optional<Nbbo> MarketStateMonitor::nbbo_of(const SymbolState& state) {
  Nbbo best;
  // The strict comparisons mean the first venue seen wins price ties, so
  // venue attribution would follow hash order; walk ids sorted instead.
  std::vector<std::uint8_t> order;
  order.reserve(state.venues.size());
  // tsn-lint: allow(unordered-iter) order-independent: ids sorted before the scan below
  for (const auto& [venue, quote] : state.venues) order.push_back(venue);
  std::sort(order.begin(), order.end());
  for (const std::uint8_t venue : order) {
    const VenueQuote& quote = state.venues.at(venue);
    if (quote.bid > 0 && (best.bid == 0 || quote.bid > best.bid)) {
      best.bid = quote.bid;
      best.bid_venue = venue;
    }
    if (quote.ask > 0 && (best.ask == 0 || quote.ask < best.ask)) {
      best.ask = quote.ask;
      best.ask_venue = venue;
    }
  }
  if (best.bid == 0 && best.ask == 0) return std::nullopt;
  return best;
}

void MarketStateMonitor::refresh_transitions(SymbolState& state, const proto::Symbol&) {
  const auto best = nbbo_of(state);
  const bool locked = best && best->locked();
  const bool crossed = best && best->crossed();
  if (locked && !state.was_locked) ++stats_.locked_transitions;
  if (crossed && !state.was_crossed) ++stats_.crossed_transitions;
  state.was_locked = locked;
  state.was_crossed = crossed;
}

std::optional<Nbbo> MarketStateMonitor::nbbo(const proto::Symbol& symbol) const {
  const auto it = symbols_.find(symbol);
  if (it == symbols_.end()) return std::nullopt;
  return nbbo_of(it->second);
}

}  // namespace tsn::trading
