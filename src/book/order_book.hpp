// Price-time-priority limit order book — the matching substrate every
// exchange in the simulation runs (§2: exchanges "match up compatible buy
// and sell orders").
//
// Pooled struct-of-arrays implementation (ROADMAP item 4). Orders and price
// levels live in slab-allocated parallel columns with freelist reuse:
//
//   order slab   id | price | qty | next | prev | level | side
//   level slab   price | qty | head | tail | next | prev
//
// Each column is its own 64-byte-aligned array (SNIPPETS.md snippet 2), so
// the fields the matching loop touches stream through separate cache lines
// and a submit/cancel/match never allocates once the slabs are warm. Levels
// form an intrusive sorted doubly-linked ladder per side (best at the head);
// orders form an intrusive FIFO chain per level; a `FlatIndex` from order id
// to slot gives O(1) cancels. Growth doubles the slabs off the hot path.
//
// The book reports every state change through a listener interface, which
// the exchange turns into market-data messages. Event order, execution ids,
// and all query results are byte-identical to the node-based reference book
// in tests/reference_book.hpp (asserted by tests/test_book_differential.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "book/flat_index.hpp"
#include "proto/types.hpp"

namespace tsn::book {

using proto::ExecId;
using proto::OrderId;
using proto::Price;
using proto::Quantity;
using proto::Side;
using proto::Symbol;

struct Order {
  OrderId id = 0;
  Side side = Side::kBuy;
  Price price = 0;
  Quantity quantity = 0;  // remaining
};

struct BestQuote {
  std::optional<Price> bid_price;
  Quantity bid_quantity = 0;
  std::optional<Price> ask_price;
  Quantity ask_quantity = 0;

  bool operator==(const BestQuote&) const = default;
};

// One match between a resting and an aggressive order.
struct Execution {
  OrderId resting_id = 0;
  OrderId aggressive_id = 0;
  Quantity quantity = 0;
  Price price = 0;  // the resting order's price
  ExecId exec_id = 0;
  Quantity resting_remaining = 0;
  Quantity aggressive_remaining = 0;
};

// Receives every book event, in match order.
class BookListener {
 public:
  virtual ~BookListener() = default;
  virtual void on_accept(const Order& order) = 0;
  virtual void on_execute(const Execution& execution) = 0;
  virtual void on_reduce(OrderId order_id, Quantity cancelled) = 0;
  virtual void on_delete(OrderId order_id) = 0;
  virtual void on_replace(OrderId order_id, Quantity new_quantity, Price new_price) = 0;
};

class OrderBook {
 public:
  // One book per symbol; matching itself needs no symbol, so the book
  // keeps none. (The parameter stays because perfbench builds books
  // with it.)
  explicit OrderBook(Symbol /*symbol*/, BookListener* listener = nullptr) noexcept
      : listener_(listener) {}


  enum class SubmitResult {
    kFilled,              // fully executed on entry
    kRested,              // no fill; resting in full
    kPartialFill,         // some filled; remainder resting
    kCancelled,           // IOC remainder cancelled (possibly after fills)
    kRejectedDuplicate,   // order id already live
  };

  struct SubmitOutcome {
    SubmitResult result = SubmitResult::kRested;
    Quantity filled = 0;
  };

  // Submits a limit order. Matches as far as possible; the remainder rests
  // unless `immediate_or_cancel`.
  SubmitOutcome submit(const Order& order, bool immediate_or_cancel = false);

  // Rests an order at the back of its level without matching; false for a
  // live id or a zero quantity. This is how a feed replica mirrors an
  // exchange's resting orders: one that missed a delete may hold a stale
  // order the next add crosses, and a replica must not invent that trade.
  bool rest(const Order& order);

  // Cancels a resting order in full, returning the cancelled quantity.
  // nullopt if unknown (e.g. already filled: the cancel/fill race of §2
  // surfaces here).
  std::optional<Quantity> cancel(OrderId id);

  // Reduces quantity without losing time priority; false if unknown or the
  // reduction is not a decrease.
  bool reduce(OrderId id, Quantity new_quantity);

  // Price or size-increase change: cancels and re-enters (loses priority),
  // matching immediately if marketable. False if unknown.
  bool replace(OrderId id, Quantity new_quantity, Price new_price);

  [[nodiscard]] BestQuote best() const;
  // Visits every resting order, bids first (best to worst), then asks —
  // the iteration a snapshot service uses to serialize book state.
  void for_each_order(const std::function<void(const Order&)>& fn) const;
  [[nodiscard]] std::size_t open_orders() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t bid_levels() const noexcept { return bid_level_count_; }
  [[nodiscard]] std::size_t ask_levels() const noexcept { return ask_level_count_; }
  [[nodiscard]] std::uint64_t executions() const noexcept { return exec_count_; }
  // Depth at a given price level (0 if none).
  // tsn-lint: allow(unreached-member) the differential suite checks it against the reference book
  [[nodiscard]] Quantity depth_at(Side side, Price price) const;
  // O(1) lookup of a resting order (replay-to-book consumers resolve
  // executed/reduced quantities through this).
  [[nodiscard]] std::optional<Order> find(OrderId id) const;

  // Pre-sizes the slabs and the id index so the first `orders` resting
  // orders across `levels` price levels never grow mid-update.
  void reserve(std::size_t orders, std::size_t levels);

 private:
  static constexpr std::uint32_t kNull = 0xffffffffu;

  Quantity match_incoming(Order& incoming);
  void rest_order(const Order& order);
  std::uint32_t level_for(bool bid_side, Price price);
  void unlink_order(std::uint32_t order);
  void unlink_level(bool bid_side, std::uint32_t level);
  std::uint32_t alloc_order_slot();
  std::uint32_t alloc_level_slot();
  void grow_orders(std::size_t new_capacity);
  void grow_levels(std::size_t new_capacity);

  BookListener* listener_;

  // Order slab (parallel columns; slot = row).
  Column<OrderId> order_id_;
  Column<Price> order_price_;
  Column<Quantity> order_qty_;
  Column<std::uint32_t> order_next_;  // FIFO chain toward the level tail / freelist link
  Column<std::uint32_t> order_prev_;
  Column<std::uint32_t> order_level_;
  Column<Side> order_side_;
  std::uint32_t free_order_ = kNull;

  // Level slab (parallel columns; slot = row).
  Column<Price> level_price_;
  Column<Quantity> level_qty_;        // aggregate resting quantity at the level
  Column<std::uint32_t> level_head_;  // front of the FIFO (oldest order)
  Column<std::uint32_t> level_tail_;
  Column<std::uint32_t> level_next_;  // next-worse level on the side / freelist link
  Column<std::uint32_t> level_prev_;
  std::uint32_t free_level_ = kNull;

  // Ladder heads: bids descend from the highest price, asks ascend from the
  // lowest, so the head is always the best level on its side.
  std::uint32_t best_bid_ = kNull;
  std::uint32_t best_ask_ = kNull;
  std::size_t bid_level_count_ = 0;
  std::size_t ask_level_count_ = 0;

  FlatIndex<OrderId, std::uint32_t> index_;  // order id -> order slot
  ExecId next_exec_id_ = 1;
  std::uint64_t exec_count_ = 0;
};

}  // namespace tsn::book
