#include "book/order_book.hpp"

#include <algorithm>
#include <bit>

#include "core/check.hpp"

namespace tsn::book {

namespace {

constexpr std::size_t kInitialOrders = 256;
constexpr std::size_t kInitialLevels = 64;

}  // namespace

// ---------------------------------------------------------------------------
// Slab growth (cold: runs only when a slab is exhausted; every structure is
// index-linked, so reallocation never invalidates live state).

void OrderBook::grow_orders(std::size_t new_capacity) {
  const std::size_t old = order_id_.size();
  TSN_DCHECK(new_capacity > old, "order slab growth must add slots");
  order_id_.resize(new_capacity);
  order_price_.resize(new_capacity);
  order_qty_.resize(new_capacity);
  order_next_.resize(new_capacity);
  order_prev_.resize(new_capacity);
  order_level_.resize(new_capacity);
  order_side_.resize(new_capacity);
  // Thread the new slots onto the freelist so pops come out ascending.
  for (std::size_t i = new_capacity; i-- > old;) {
    order_next_[i] = free_order_;
    free_order_ = static_cast<std::uint32_t>(i);
  }
}

void OrderBook::grow_levels(std::size_t new_capacity) {
  const std::size_t old = level_price_.size();
  TSN_DCHECK(new_capacity > old, "level slab growth must add slots");
  level_price_.resize(new_capacity);
  level_qty_.resize(new_capacity);
  level_head_.resize(new_capacity);
  level_tail_.resize(new_capacity);
  level_next_.resize(new_capacity);
  level_prev_.resize(new_capacity);
  for (std::size_t i = new_capacity; i-- > old;) {
    level_next_[i] = free_level_;
    free_level_ = static_cast<std::uint32_t>(i);
  }
}

void OrderBook::reserve(std::size_t orders, std::size_t levels) {
  if (orders > order_id_.size()) grow_orders(std::bit_ceil(orders));
  if (levels > level_price_.size()) grow_levels(std::bit_ceil(levels));
  index_.reserve(orders);
}

// ---------------------------------------------------------------------------
// Slab freelists.

// tsn-lint: hotpath
std::uint32_t OrderBook::alloc_order_slot() {
  if (free_order_ == kNull) {
    grow_orders(order_id_.empty() ? kInitialOrders : order_id_.size() * 2);
  }
  const std::uint32_t slot = free_order_;
  free_order_ = order_next_[slot];
  return slot;
}

// tsn-lint: hotpath
std::uint32_t OrderBook::alloc_level_slot() {
  if (free_level_ == kNull) {
    grow_levels(level_price_.empty() ? kInitialLevels : level_price_.size() * 2);
  }
  const std::uint32_t slot = free_level_;
  free_level_ = level_next_[slot];
  return slot;
}

// ---------------------------------------------------------------------------
// Ladder maintenance.

// Finds the level for `price` on one side, splicing in a fresh level slot at
// the sorted position if none exists. Walks from the best level: resting
// traffic clusters near the top of book, so the scan is short in practice.
// tsn-lint: hotpath
std::uint32_t OrderBook::level_for(bool bid_side, Price price) {
  std::uint32_t* head = bid_side ? &best_bid_ : &best_ask_;
  std::uint32_t prev = kNull;
  std::uint32_t cur = *head;
  while (cur != kNull) {
    const Price level_price = level_price_[cur];
    if (level_price == price) return cur;
    const bool better = bid_side ? level_price > price : level_price < price;
    if (!better) break;
    prev = cur;
    cur = level_next_[cur];
  }
  const std::uint32_t level = alloc_level_slot();
  level_price_[level] = price;
  level_qty_[level] = 0;
  level_head_[level] = kNull;
  level_tail_[level] = kNull;
  level_prev_[level] = prev;
  level_next_[level] = cur;
  if (prev != kNull) {
    level_next_[prev] = level;
  } else {
    *head = level;
  }
  if (cur != kNull) level_prev_[cur] = level;
  if (bid_side) {
    ++bid_level_count_;
  } else {
    ++ask_level_count_;
  }
  return level;
}

// tsn-lint: hotpath
void OrderBook::unlink_level(bool bid_side, std::uint32_t level) {
  const std::uint32_t prev = level_prev_[level];
  const std::uint32_t next = level_next_[level];
  if (prev != kNull) {
    level_next_[prev] = next;
  } else if (bid_side) {
    best_bid_ = next;
  } else {
    best_ask_ = next;
  }
  if (next != kNull) level_prev_[next] = prev;
  level_next_[level] = free_level_;
  free_level_ = level;
  if (bid_side) {
    --bid_level_count_;
  } else {
    --ask_level_count_;
  }
}

// Removes one resting order from its level chain (freeing the level when it
// empties) and recycles the order slot. The id index entry is the caller's
// responsibility.
// tsn-lint: hotpath
void OrderBook::unlink_order(std::uint32_t order) {
  const std::uint32_t level = order_level_[order];
  const std::uint32_t prev = order_prev_[order];
  const std::uint32_t next = order_next_[order];
  if (prev != kNull) {
    order_next_[prev] = next;
  } else {
    level_head_[level] = next;
  }
  if (next != kNull) {
    order_prev_[next] = prev;
  } else {
    level_tail_[level] = prev;
  }
  level_qty_[level] -= order_qty_[order];
  if (level_head_[level] == kNull) {
    unlink_level(order_side_[order] == Side::kBuy, level);
  }
  order_next_[order] = free_order_;
  free_order_ = order;
}

// ---------------------------------------------------------------------------
// Matching.

// tsn-lint: hotpath
Quantity OrderBook::match_incoming(Order& incoming) {
  Quantity filled = 0;
  const bool buy = incoming.side == Side::kBuy;
  std::uint32_t* best = buy ? &best_ask_ : &best_bid_;
  while (incoming.quantity > 0) {
    const std::uint32_t level = *best;
    if (level == kNull) break;
    const Price level_price = level_price_[level];
    if (buy ? incoming.price < level_price : incoming.price > level_price) break;
    while (incoming.quantity > 0) {
      const std::uint32_t resting = level_head_[level];
      if (resting == kNull) break;
      const Quantity traded = std::min(incoming.quantity, order_qty_[resting]);
      order_qty_[resting] -= traded;
      incoming.quantity -= traded;
      level_qty_[level] -= traded;
      filled += traded;
      ++exec_count_;
      const ExecId exec = next_exec_id_++;
      if (listener_ != nullptr) {
        listener_->on_execute(Execution{order_id_[resting], incoming.id, traded,
                                        order_price_[resting], exec, order_qty_[resting],
                                        incoming.quantity});
      }
      if (order_qty_[resting] == 0) {
        index_.erase(order_id_[resting]);
        // Pop the front of the FIFO chain and recycle the slot.
        const std::uint32_t next = order_next_[resting];
        level_head_[level] = next;
        if (next != kNull) {
          order_prev_[next] = kNull;
        } else {
          level_tail_[level] = kNull;
        }
        order_next_[resting] = free_order_;
        free_order_ = resting;
      }
    }
    if (level_head_[level] == kNull) unlink_level(!buy, level);
  }
  return filled;
}

// tsn-lint: hotpath
void OrderBook::rest_order(const Order& order) {
  const bool bid_side = order.side == Side::kBuy;
  const std::uint32_t level = level_for(bid_side, order.price);
  const std::uint32_t slot = alloc_order_slot();
  order_id_[slot] = order.id;
  order_price_[slot] = order.price;
  order_qty_[slot] = order.quantity;
  order_side_[slot] = order.side;
  order_level_[slot] = level;
  order_next_[slot] = kNull;
  const std::uint32_t tail = level_tail_[level];
  order_prev_[slot] = tail;
  if (tail != kNull) {
    order_next_[tail] = slot;
  } else {
    level_head_[level] = slot;
  }
  level_tail_[level] = slot;
  level_qty_[level] += order.quantity;
  index_.insert(order.id, slot);
  if (listener_ != nullptr) listener_->on_accept(order);
}

// ---------------------------------------------------------------------------
// Public API.

// tsn-lint: hotpath
OrderBook::SubmitOutcome OrderBook::submit(const Order& order, bool immediate_or_cancel) {
  if (index_.find(order.id) != nullptr) return {SubmitResult::kRejectedDuplicate, 0};
  Order incoming = order;
  const Quantity filled = match_incoming(incoming);
  if (incoming.quantity == 0) return {SubmitResult::kFilled, filled};
  // Unfilled remainder of an IOC evaporates without ever entering the book.
  if (immediate_or_cancel) return {SubmitResult::kCancelled, filled};
  rest_order(incoming);
  return {filled > 0 ? SubmitResult::kPartialFill : SubmitResult::kRested, filled};
}

// tsn-lint: hotpath
bool OrderBook::rest(const Order& order) {
  if (order.quantity == 0 || index_.find(order.id) != nullptr) return false;
  rest_order(order);
  return true;
}

// tsn-lint: hotpath
std::optional<Quantity> OrderBook::cancel(OrderId id) {
  const std::uint32_t* found = index_.find(id);
  if (found == nullptr) return std::nullopt;
  const std::uint32_t slot = *found;
  const Quantity remaining = order_qty_[slot];
  index_.erase(id);
  unlink_order(slot);
  if (listener_ != nullptr) listener_->on_delete(id);
  return remaining;
}

// tsn-lint: hotpath
bool OrderBook::reduce(OrderId id, Quantity new_quantity) {
  const std::uint32_t* found = index_.find(id);
  if (found == nullptr) return false;
  const std::uint32_t slot = *found;
  if (new_quantity >= order_qty_[slot]) return false;
  if (new_quantity == 0) return cancel(id).has_value();
  const Quantity cancelled = order_qty_[slot] - new_quantity;
  order_qty_[slot] = new_quantity;
  level_qty_[order_level_[slot]] -= cancelled;
  if (listener_ != nullptr) listener_->on_reduce(id, cancelled);
  return true;
}

// tsn-lint: hotpath
bool OrderBook::replace(OrderId id, Quantity new_quantity, Price new_price) {
  const std::uint32_t* found = index_.find(id);
  if (found == nullptr) return false;
  const std::uint32_t slot = *found;
  const Side side = order_side_[slot];
  index_.erase(id);
  unlink_order(slot);
  if (listener_ != nullptr) listener_->on_replace(id, new_quantity, new_price);
  // Re-entry matches as a fresh order (price-time priority lost, §2's
  // repricing behaviour).
  Order incoming{id, side, new_price, new_quantity};
  match_incoming(incoming);
  if (incoming.quantity > 0) rest_order(incoming);
  return true;
}

void OrderBook::for_each_order(const std::function<void(const Order&)>& fn) const {
  for (std::uint32_t level = best_bid_; level != kNull; level = level_next_[level]) {
    for (std::uint32_t o = level_head_[level]; o != kNull; o = order_next_[o]) {
      fn(Order{order_id_[o], order_side_[o], order_price_[o], order_qty_[o]});
    }
  }
  for (std::uint32_t level = best_ask_; level != kNull; level = level_next_[level]) {
    for (std::uint32_t o = level_head_[level]; o != kNull; o = order_next_[o]) {
      fn(Order{order_id_[o], order_side_[o], order_price_[o], order_qty_[o]});
    }
  }
}

BestQuote OrderBook::best() const {
  BestQuote quote;
  if (best_bid_ != kNull) {
    quote.bid_price = level_price_[best_bid_];
    quote.bid_quantity = level_qty_[best_bid_];
  }
  if (best_ask_ != kNull) {
    quote.ask_price = level_price_[best_ask_];
    quote.ask_quantity = level_qty_[best_ask_];
  }
  return quote;
}

Quantity OrderBook::depth_at(Side side, Price price) const {
  for (std::uint32_t level = side == Side::kBuy ? best_bid_ : best_ask_; level != kNull;
       level = level_next_[level]) {
    if (level_price_[level] == price) return level_qty_[level];
  }
  return 0;
}

std::optional<Order> OrderBook::find(OrderId id) const {
  const std::uint32_t* found = index_.find(id);
  if (found == nullptr) return std::nullopt;
  const std::uint32_t slot = *found;
  return Order{order_id_[slot], order_side_[slot], order_price_[slot], order_qty_[slot]};
}

}  // namespace tsn::book
