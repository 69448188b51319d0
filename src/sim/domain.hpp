// One shard of a `ShardedEngine`: a per-region event queue with its own
// clock, behind the same `Scheduler` interface as the single-threaded
// `Engine`.
//
// Components constructed against a Domain's `Scheduler&` are confined to
// that shard: every event they schedule runs on the shard's queue, and
// during a parallel run only one worker thread ever executes a given
// shard's events, so component state needs no locking. The only sanctioned
// way to affect another shard is `post_to(dst, at, action)`, which routes
// through the parent ShardedEngine's mailboxes; `at` must be at least the
// engine's lookahead window into the future (cross-shard bridges guarantee
// this by construction — their propagation delay bounds the lookahead).
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace tsn::sim {

class ShardedEngine;

// Ambient per-shard execution context. A domain's events may run on any
// worker thread in windowed mode, but thread-local state (telemetry's
// ambient trace sink, most notably) installed on the coordinating thread
// does not follow them there — spans recorded inside worker-run events were
// silently dropped. A ShardContext travels with the domain instead: the
// engine brackets every batch of events the domain executes with enter() /
// leave() *on the executing thread*, whichever thread that is. The sim
// layer defines only the hook; upper layers (telemetry) implement it, so
// sim stays free of telemetry dependencies.
class ShardContext {
 public:
  virtual ~ShardContext() = default;
  ShardContext() = default;
  ShardContext(const ShardContext&) = delete;
  ShardContext& operator=(const ShardContext&) = delete;
  virtual void enter() noexcept = 0;
  virtual void leave() noexcept = 0;
};

class Domain final : public Scheduler {
 public:
  [[nodiscard]] Time now() const noexcept override { return now_; }

  // Schedules onto this shard's queue. Same-instant events fire in
  // scheduling order via the sequence counter (shared across shards in
  // golden mode; per-shard in windowed mode).
  EventHandle schedule_at(Time at, Action action) override;

  // O(1) generation-checked cancel. A handle minted by another domain is a
  // TSN_DCHECK failure (it would index an unrelated slot on this shard's
  // pool) and returns false in release builds.
  bool cancel(EventHandle handle) override;

  [[nodiscard]] DomainId domain_id() const noexcept override { return id_; }

  // Hands `action` to domain `dst` for execution at absolute time `at`.
  // The one legal way to cross shards. `at` must respect the engine's
  // lookahead: at >= now() + lookahead, which cross-domain link bridges
  // guarantee because their propagation delay is a lookahead bound.
  void post_to(DomainId dst, Time at, Action action);

  // Pre-warms this shard's pool slabs and heap vector.
  void reserve(std::size_t events) { queue_.reserve(events); }

  // Installs (or clears, with nullptr) the shard-local execution context.
  // Both run modes bracket this domain's event execution with it, so e.g. a
  // telemetry::DomainTraceContext captures the shard's spans regardless of
  // which thread — coordinator or worker — runs them. Not owned; must
  // outlive the engine's runs. Set between runs, not during one.
  void set_context(ShardContext* context) noexcept { context_ = context; }
  [[nodiscard]] ShardContext* context() const noexcept { return context_; }

  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.live(); }
  // Heap entries, pending events plus cancelled ones not yet purged.
  [[nodiscard]] std::size_t heap_entries() const noexcept { return queue_.heap_entries(); }
  [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }
  [[nodiscard]] std::size_t pool_capacity() const noexcept { return queue_.pool_capacity(); }
  [[nodiscard]] std::size_t pool_in_use() const noexcept { return queue_.pool_in_use(); }

 private:
  friend class ShardedEngine;

  Domain(ShardedEngine& parent, DomainId id) noexcept
      : queue_(id), parent_(&parent), id_(id) {}

  // Runs every event with time < window_end (exclusive — conservative
  // lookahead guarantees no cross-shard effect can land inside the window).
  // Called from one worker thread at a time; returns events fired. Ambient
  // telemetry context is thread-local, so a worker running this shard sees
  // no sink unless one was installed on that thread.
  std::uint64_t run_window(Time window_end);

  // Golden-mode single step: pops this shard's head event (which the merged
  // loop has established is the global minimum). Advances now_. Runs on the
  // calling thread, so an ambient ScopedTraceSink there applies to every
  // shard — exactly the plain-Engine tracing behavior. A shard-local
  // context, when installed, brackets the event here too, so golden and
  // windowed runs attribute spans to the same per-shard sinks.
  void pop_head() {
    if (context_ == nullptr) {
      queue_.pop_one(now_, fired_);
      return;
    }
    context_->enter();
    queue_.pop_one(now_, fired_);
    context_->leave();
  }

  // Next live event's (at, seq), or nullptr when the shard is idle.
  [[nodiscard]] const EventQueue::HeapEntry* peek() { return queue_.peek_live(); }

  EventQueue queue_;
  ShardedEngine* parent_;
  Time now_ = Time::zero();
  std::uint64_t own_seq_ = 1;
  // Golden mode points every shard at one shared counter so the merged
  // execution is byte-identical to a plain Engine; windowed mode points each
  // shard back at its own.
  std::uint64_t* seq_ = &own_seq_;
  std::uint64_t fired_ = 0;
  ShardContext* context_ = nullptr;
  DomainId id_ = kMainDomain;
};

}  // namespace tsn::sim
