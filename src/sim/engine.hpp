// The discrete-event simulation engine (single-threaded golden reference).
//
// A single-threaded event loop over a time-ordered queue. Events scheduled
// for the same instant fire in scheduling order (a monotonically increasing
// sequence number breaks ties), which makes runs fully deterministic.
//
// `Engine` is one of two `Scheduler` implementations — the other is
// `Domain` (sim/domain.hpp), one shard of a parallel `ShardedEngine`. The
// engine is the golden reference the sharded runtime must match: a
// ShardedEngine run with one worker is byte-identical to an Engine run of
// the same topology.
//
// Hot-path memory model: actions are stored in pooled, slab-allocated slots
// (`EventPool`) as `InlineAction`s — no heap allocation per event once the
// pool and the heap vector are warm. Cancellation is O(1) amortized: a
// handle names (slot, generation); cancelling releases the slot immediately,
// and stale heap entries are purged once they outnumber live ones (plus a
// small slack). The queue core lives in sim/event_queue.hpp, shared with
// `Domain`.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace tsn::sim {

class Engine final : public Scheduler {
 public:
  Engine() = default;

  // Current simulation time. Monotonically non-decreasing.
  [[nodiscard]] Time now() const noexcept override { return now_; }

  // Schedules `action` to run at absolute time `at`. Scheduling into the
  // past clamps to `now()` (the event fires next, after already-due events).
  EventHandle schedule_at(Time at, Action action) override;

  // Cancels a pending event in O(1). Returns true if the event existed and
  // had not yet fired; stale handles (fired, already cancelled, or slot
  // reused) return false.
  bool cancel(EventHandle handle) override;

  // A plain engine is always the main domain.
  [[nodiscard]] DomainId domain_id() const noexcept override { return kMainDomain; }

  // Runs until the queue drains. Returns the number of events fired.
  std::uint64_t run();

  // Runs events with time <= deadline, then advances the clock to exactly
  // `deadline` (even if the queue drained early). Returns events fired.
  std::uint64_t run_until(Time deadline);

  // Runs exactly one event, if any. Returns true if one fired.
  bool step();

  // Stops a run() / run_until() in progress after the current event.
  void request_stop() noexcept { stop_requested_ = true; }

  // Pre-warms pool slabs and the heap vector for `events` concurrent
  // pending events, so bursts (Fig 2c) hit no allocation at schedule time.
  void reserve(std::size_t events) { queue_.reserve(events); }

  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.live(); }
  // Heap entries, pending events plus cancelled ones not yet purged; at most
  // 2 x pending_events() + EventQueue::kStaleSlack.
  [[nodiscard]] std::size_t heap_entries() const noexcept { return queue_.heap_entries(); }
  [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }
  // Pool introspection (tests and capacity planning).
  [[nodiscard]] std::size_t pool_capacity() const noexcept { return queue_.pool_capacity(); }
  [[nodiscard]] std::size_t pool_in_use() const noexcept { return queue_.pool_in_use(); }

 private:
  EventQueue queue_{kMainDomain};
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  bool stop_requested_ = false;
};

}  // namespace tsn::sim
