#include "reference_book.hpp"

namespace tsn::book {

namespace {

// Whether an incoming order at `incoming_price` crosses a resting level at
// `level_price` on the opposite side.
bool crosses(Side incoming_side, Price incoming_price, Price level_price) noexcept {
  return incoming_side == Side::kBuy ? incoming_price >= level_price
                                     : incoming_price <= level_price;
}

}  // namespace

template <typename Ladder>
Quantity ReferenceBook::match_against(Ladder& ladder, Order& incoming) {
  Quantity filled = 0;
  while (incoming.quantity > 0 && !ladder.empty()) {
    auto level_it = ladder.begin();
    if (!crosses(incoming.side, incoming.price, level_it->first)) break;
    Level& level = level_it->second;
    while (incoming.quantity > 0 && !level.empty()) {
      Order& resting = level.front();
      const Quantity traded = std::min(incoming.quantity, resting.quantity);
      resting.quantity -= traded;
      incoming.quantity -= traded;
      filled += traded;
      ++exec_count_;
      const ExecId exec = next_exec_id_++;
      if (listener_ != nullptr) {
        listener_->on_execute(Execution{resting.id, incoming.id, traded, resting.price, exec,
                                        resting.quantity, incoming.quantity});
      }
      if (resting.quantity == 0) {
        index_.erase(resting.id);
        level.pop_front();
      }
    }
    if (level.empty()) ladder.erase(level_it);
  }
  return filled;
}

template <typename Ladder>
void ReferenceBook::rest_on(Ladder& ladder, const Order& order) {
  Level& level = ladder[order.price];
  level.push_back(order);
  auto position = std::prev(level.end());
  index_.emplace(order.id, Locator{order.side, order.price, position});
  if (listener_ != nullptr) listener_->on_accept(order);
}

ReferenceBook::SubmitOutcome ReferenceBook::submit(const Order& order,
                                                   bool immediate_or_cancel) {
  if (index_.contains(order.id)) return {SubmitResult::kRejectedDuplicate, 0};
  Order incoming = order;
  Quantity filled;
  if (incoming.side == Side::kBuy) {
    filled = match_against(asks_, incoming);
  } else {
    filled = match_against(bids_, incoming);
  }
  if (incoming.quantity == 0) return {SubmitResult::kFilled, filled};
  // Unfilled remainder of an IOC evaporates without ever entering the book.
  if (immediate_or_cancel) return {SubmitResult::kCancelled, filled};
  if (incoming.side == Side::kBuy) {
    rest_on(bids_, incoming);
  } else {
    rest_on(asks_, incoming);
  }
  return {filled > 0 ? SubmitResult::kPartialFill : SubmitResult::kRested, filled};
}

bool ReferenceBook::rest(const Order& order) {
  if (order.quantity == 0 || index_.contains(order.id)) return false;
  if (order.side == Side::kBuy) {
    rest_on(bids_, order);
  } else {
    rest_on(asks_, order);
  }
  return true;
}

bool ReferenceBook::erase_located(OrderId id, const Locator& loc) {
  if (loc.side == Side::kBuy) {
    auto level_it = bids_.find(loc.price);
    if (level_it == bids_.end()) return false;
    level_it->second.erase(loc.position);
    if (level_it->second.empty()) bids_.erase(level_it);
  } else {
    auto level_it = asks_.find(loc.price);
    if (level_it == asks_.end()) return false;
    level_it->second.erase(loc.position);
    if (level_it->second.empty()) asks_.erase(level_it);
  }
  index_.erase(id);
  return true;
}

std::optional<Quantity> ReferenceBook::cancel(OrderId id) {
  auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  const Locator loc = it->second;
  const Quantity remaining = loc.position->quantity;
  if (!erase_located(id, loc)) return std::nullopt;
  if (listener_ != nullptr) listener_->on_delete(id);
  return remaining;
}

bool ReferenceBook::reduce(OrderId id, Quantity new_quantity) {
  auto it = index_.find(id);
  if (it == index_.end()) return false;
  Order& order = *it->second.position;
  if (new_quantity >= order.quantity) return false;
  if (new_quantity == 0) return cancel(id).has_value();
  const Quantity cancelled = order.quantity - new_quantity;
  order.quantity = new_quantity;
  if (listener_ != nullptr) listener_->on_reduce(id, cancelled);
  return true;
}

bool ReferenceBook::replace(OrderId id, Quantity new_quantity, Price new_price) {
  auto it = index_.find(id);
  if (it == index_.end()) return false;
  const Locator loc = it->second;
  const Side side = loc.side;
  if (!erase_located(id, loc)) return false;
  if (listener_ != nullptr) listener_->on_replace(id, new_quantity, new_price);
  // Re-entry matches as a fresh order (price-time priority lost, §2's
  // repricing behaviour).
  Order incoming{id, side, new_price, new_quantity};
  if (incoming.side == Side::kBuy) {
    match_against(asks_, incoming);
  } else {
    match_against(bids_, incoming);
  }
  if (incoming.quantity > 0) {
    if (incoming.side == Side::kBuy) {
      rest_on(bids_, incoming);
    } else {
      rest_on(asks_, incoming);
    }
  }
  return true;
}

void ReferenceBook::for_each_order(const std::function<void(const Order&)>& fn) const {
  for (const auto& [price, level] : bids_) {
    for (const Order& order : level) fn(order);
  }
  for (const auto& [price, level] : asks_) {
    for (const Order& order : level) fn(order);
  }
}

BestQuote ReferenceBook::best() const {
  BestQuote quote;
  if (!bids_.empty()) {
    const auto& [price, level] = *bids_.begin();
    quote.bid_price = price;
    for (const Order& o : level) quote.bid_quantity += o.quantity;
  }
  if (!asks_.empty()) {
    const auto& [price, level] = *asks_.begin();
    quote.ask_price = price;
    for (const Order& o : level) quote.ask_quantity += o.quantity;
  }
  return quote;
}

Quantity ReferenceBook::depth_at(Side side, Price price) const {
  Quantity total = 0;
  if (side == Side::kBuy) {
    auto it = bids_.find(price);
    if (it == bids_.end()) return 0;
    for (const Order& o : it->second) total += o.quantity;
  } else {
    auto it = asks_.find(price);
    if (it == asks_.end()) return 0;
    for (const Order& o : it->second) total += o.quantity;
  }
  return total;
}

std::optional<Order> ReferenceBook::find(OrderId id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return *it->second.position;
}

}  // namespace tsn::book
