// Node-based reference order book — the original `std::map`/`std::list`/
// `std::unordered_map` implementation, kept as the behavioral oracle for the
// pooled SoA book that replaced it on the hot path (ROADMAP item 4).
//
// The differential test (test_book_differential.cpp) drives this book and
// the SoA `OrderBook` with identical randomized and fuzz-derived sequences
// and asserts byte-identical executions, quotes, and listener callbacks. It
// lives with the tests and compiles into that test binary only; it trades
// speed for obviously-correct standard-library structure.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <unordered_map>

#include "book/order_book.hpp"
#include "proto/types.hpp"

namespace tsn::book {

class ReferenceBook {
 public:
  explicit ReferenceBook(Symbol symbol, BookListener* listener = nullptr) noexcept
      : symbol_(symbol), listener_(listener) {}

  void set_listener(BookListener* listener) noexcept { listener_ = listener; }

  using SubmitResult = OrderBook::SubmitResult;
  using SubmitOutcome = OrderBook::SubmitOutcome;

  // The same contract as OrderBook::submit, order for order.
  SubmitOutcome submit(const Order& order, bool immediate_or_cancel = false);
  // The same contract as OrderBook::rest: rests without matching.
  bool rest(const Order& order);

  std::optional<Quantity> cancel(OrderId id);
  bool reduce(OrderId id, Quantity new_quantity);
  bool replace(OrderId id, Quantity new_quantity, Price new_price);

  [[nodiscard]] BestQuote best() const;
  void for_each_order(const std::function<void(const Order&)>& fn) const;
  [[nodiscard]] std::size_t open_orders() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t bid_levels() const noexcept { return bids_.size(); }
  [[nodiscard]] std::size_t ask_levels() const noexcept { return asks_.size(); }
  [[nodiscard]] Symbol symbol() const noexcept { return symbol_; }
  [[nodiscard]] std::uint64_t executions() const noexcept { return exec_count_; }
  [[nodiscard]] Quantity depth_at(Side side, Price price) const;
  [[nodiscard]] std::optional<Order> find(OrderId id) const;

 private:
  // Bids: best = highest price. Asks: best = lowest. Each level is FIFO.
  using Level = std::list<Order>;
  using BidLadder = std::map<Price, Level, std::greater<>>;
  using AskLadder = std::map<Price, Level, std::less<>>;

  struct Locator {
    Side side;
    Price price;
    Level::iterator position;
  };

  template <typename Ladder>
  Quantity match_against(Ladder& ladder, Order& incoming);
  template <typename Ladder>
  void rest_on(Ladder& ladder, const Order& order);
  bool erase_located(OrderId id, const Locator& loc);

  Symbol symbol_;
  BookListener* listener_;
  BidLadder bids_;
  AskLadder asks_;
  std::unordered_map<OrderId, Locator> index_;
  ExecId next_exec_id_ = 1;
  std::uint64_t exec_count_ = 0;
};

}  // namespace tsn::book
