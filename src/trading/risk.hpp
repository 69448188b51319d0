// Pre-trade risk checks and firm-wide position tracking (§4.2).
//
// "Firms also track metrics akin to a firm-wide net position, for
// regulatory reasons and to assess risk." In practice that tracking lives
// where every order already passes: the gateway. RiskEngine implements the
// standard pre-trade gate — per-order size/notional caps, open-order
// budget, and per-symbol plus firm-wide position limits that account for
// the exposure a new order would create if fully filled — and consumes
// fills to keep the firm's net position current.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "proto/boe.hpp"
#include "proto/types.hpp"

namespace tsn::trading {

struct RiskLimits {
  proto::Quantity max_order_quantity = 10'000;
  // Notional in price units (price * quantity).
  std::int64_t max_order_notional = 2'000'000'000;  // $200k at 1e-4 scale... per order
  std::uint32_t max_open_orders = 1'000;
  // Absolute per-symbol net position cap (shares).
  std::int64_t max_symbol_position = 50'000;
  // Absolute firm-wide gross exposure cap (sum of |per-symbol positions|).
  std::int64_t max_firm_gross_position = 500'000;
};

struct RiskStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_size = 0;
  std::uint64_t rejected_notional = 0;
  std::uint64_t rejected_open_orders = 0;
  std::uint64_t rejected_symbol_position = 0;
  std::uint64_t rejected_firm_position = 0;
};

class RiskEngine {
 public:
  explicit RiskEngine(RiskLimits limits = {}) noexcept : limits_(limits) {}

  enum class Verdict {
    kAccept,
    kOrderTooLarge,
    kNotionalTooLarge,
    kTooManyOpenOrders,
    kSymbolPositionLimit,
    kFirmPositionLimit,
  };

  // Pre-trade check. Accepted orders reserve exposure until they are
  // filled, cancelled or rejected upstream.
  [[nodiscard]] Verdict check_new_order(const proto::boe::NewOrder& order);

  // Lifecycle updates (keyed by the id used in check_new_order).
  void on_fill(proto::OrderId client_order_id, proto::Quantity quantity,
               proto::Quantity leaves_quantity);
  void on_terminal(proto::OrderId client_order_id);  // cancel/reject: release

  // Current net position (signed shares) for a symbol / firm-wide gross.
  [[nodiscard]] std::int64_t position(const proto::Symbol& symbol) const noexcept;
  [[nodiscard]] std::int64_t firm_gross_position() const noexcept;
  [[nodiscard]] std::size_t open_orders() const noexcept { return open_.size(); }
  [[nodiscard]] const RiskStats& stats() const noexcept { return stats_; }

 private:
  struct OpenOrder {
    proto::Symbol symbol;
    proto::Side side = proto::Side::kBuy;
    proto::Quantity remaining = 0;
  };

  // Exposure a symbol would reach if this delta (signed) were realized.
  [[nodiscard]] std::int64_t projected_symbol_exposure(const proto::Symbol& symbol,
                                                       std::int64_t delta) const noexcept;

  RiskLimits limits_;
  std::unordered_map<proto::OrderId, OpenOrder> open_;
  std::unordered_map<proto::Symbol, std::int64_t> positions_;
  RiskStats stats_;
};

// Maps a risk verdict to the wire reject reason.
[[nodiscard]] constexpr proto::boe::RejectReason to_reject_reason(
    RiskEngine::Verdict verdict) noexcept {
  return verdict == RiskEngine::Verdict::kAccept ? proto::boe::RejectReason::kNone
                                                 : proto::boe::RejectReason::kRiskLimit;
}

}  // namespace tsn::trading
