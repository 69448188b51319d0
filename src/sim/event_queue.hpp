// The time-ordered event queue core shared by `Engine` and `Domain`.
//
// Extracted from the PR 3 engine: pooled slab-allocated slots (`EventPool`),
// a binary heap purged of cancelled entries, and generation-checked
// cancellation in O(1) amortized. The queue owns neither the clock nor the
// sequence counter — its owner passes `seq` into push() (a Domain under a
// golden-mode ShardedEngine shares one counter across all shards so the
// merged run is byte-identical to a plain Engine) and advances its own
// `now` from the entries the queue pops.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/check.hpp"
#include "sim/action.hpp"
#include "sim/event_pool.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace tsn::sim {

class EventQueue {
 public:
  // Heap entries are small POD (the action stays in the pool slot); a
  // cancelled event's entry goes stale, detected by generation mismatch.
  struct HeapEntry {
    Time at;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  explicit EventQueue(DomainId domain = kMainDomain) noexcept : domain_(domain) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Adds an event. The caller supplies the tie-break sequence number; (at,
  // seq) must be unique per queue and seq monotonically increasing for
  // deterministic same-instant ordering.
  // tsn-lint: hotpath
  EventHandle push(Time at, std::uint64_t seq, InlineAction action) {
    const std::uint32_t index = pool_.acquire();
    EventPool::Slot& slot = pool_.slot(index);
    slot.at = at;
    slot.seq = seq;
    slot.armed = true;
    slot.action = std::move(action);
    heap_.push_back(HeapEntry{at, seq, index, slot.generation});
    std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
    ++live_;
    return EventHandle{index, slot.generation, domain_};
  }

  // Stale entries the heap may hold beyond one per live event before they
  // are purged; keeps purges rare when few events are pending.
  static constexpr std::size_t kStaleSlack = 64;

  // O(1) amortized cancel; see Scheduler::cancel for the handle-staleness
  // contract. The caller is responsible for the domain check — this queue
  // only checks slot liveness.
  // tsn-lint: hotpath
  bool cancel(EventHandle handle) {
    if (!handle.valid() || handle.slot_ >= pool_.capacity()) return false;
    EventPool::Slot& slot = pool_.slot(handle.slot_);
    // A fired, cancelled, or reused slot has moved past the handle's
    // generation; only the live original matches.
    if (!slot.armed || slot.generation != handle.generation_) return false;
    pool_.release(handle.slot_);  // its heap entry goes stale
    --live_;
    purge_if_mostly_stale();
    return true;
  }

  // Discards stale (cancelled) top entries; returns the next live entry or
  // nullptr. The single peek path shared by every run loop.
  // tsn-lint: hotpath
  const HeapEntry* peek_live() {
    while (!heap_.empty()) {
      if (is_live(heap_.front())) return &heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
      heap_.pop_back();
    }
    return nullptr;
  }

  // Pops the next live event, advances `now` to its timestamp, bumps
  // `fired`, and invokes the action. Returns false if the queue is empty.
  // tsn-lint: hotpath
  bool pop_one(Time& now, std::uint64_t& fired) {
    const HeapEntry* top = peek_live();
    if (top == nullptr) return false;
    const HeapEntry entry = *top;
    std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
    heap_.pop_back();
    EventPool::Slot& slot = pool_.slot(entry.slot);
    // Release the slot before invoking: the action may schedule new events
    // (reusing this slot under a fresh generation) or cancel others.
    InlineAction action = std::move(slot.action);
    pool_.release(entry.slot);
    --live_;
    purge_if_mostly_stale();
    TSN_DCHECK(entry.at >= now, "event queue must never run time backwards");
    now = entry.at;
    ++fired;
    action();
    return true;
  }

  // Pre-warms pool slabs and the heap vector for `events` concurrent
  // pending events, so bursts hit no allocation at schedule time.
  void reserve(std::size_t events) {
    pool_.reserve(events);
    heap_.reserve(events);
  }

  [[nodiscard]] DomainId domain() const noexcept { return domain_; }
  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  // Heap entries, live plus not yet purged stale ones.
  [[nodiscard]] std::size_t heap_entries() const noexcept { return heap_.size(); }
  [[nodiscard]] std::size_t pool_capacity() const noexcept { return pool_.capacity(); }
  [[nodiscard]] std::size_t pool_in_use() const noexcept { return pool_.in_use(); }

 private:
  // std::push_heap/pop_heap build a max-heap; "fires later" as the ordering
  // puts the earliest (time, seq) on top.
  struct FiresLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  // False once the entry's event was cancelled: its slot was released (and
  // possibly re-armed under a new generation).
  [[nodiscard]] bool is_live(const HeapEntry& entry) const noexcept {
    const EventPool::Slot& slot = pool_.slot(entry.slot);
    return slot.armed && slot.generation == entry.generation;
  }

  // Called wherever the live count drops. Once stale entries outnumber live
  // ones plus the slack, erases them all in place and rebuilds the heap, so
  // the heap never holds more than 2 x live + slack entries. A purge walks
  // fewer than twice as many entries as it drops, and each cancel leaves
  // one stale entry, so the cost is O(1) amortized per cancel.
  // Allocation-free, and firing order is unchanged: (at, seq) is unique per
  // queue, so any valid heap over the live entries pops them in the same
  // order.
  void purge_if_mostly_stale() {
    if (heap_.size() - live_ <= live_ + kStaleSlack) return;
    std::erase_if(heap_, [this](const HeapEntry& entry) { return !is_live(entry); });
    std::make_heap(heap_.begin(), heap_.end(), FiresLater{});
  }

  std::vector<HeapEntry> heap_;
  EventPool pool_;
  DomainId domain_ = kMainDomain;
  std::uint64_t live_ = 0;  // pending minus cancelled
};

}  // namespace tsn::sim
