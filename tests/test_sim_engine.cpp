#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/sharded_engine.hpp"

namespace tsn::sim {
namespace {

TEST(Engine, StartsAtTimeZeroWithEmptyQueue) {
  Engine engine;
  EXPECT_EQ(engine.now(), Time::zero());
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.run(), 0u);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(Time{300}, [&] { order.push_back(3); });
  engine.schedule_at(Time{100}, [&] { order.push_back(1); });
  engine.schedule_at(Time{200}, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), Time{300});
}

TEST(Engine, SameInstantFiresInSchedulingOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(Time{50}, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleInIsRelative) {
  Engine engine;
  Time fired;
  engine.schedule_at(Time{1'000}, [&] {
    engine.schedule_in(Duration{500}, [&] { fired = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired, Time{1'500});
}

TEST(Engine, SchedulingIntoThePastClampsToNow) {
  Engine engine;
  Time fired;
  engine.schedule_at(Time{1'000}, [&] {
    engine.schedule_at(Time{10}, [&] { fired = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(fired, Time{1'000});
}

TEST(Engine, NegativeDelayClampsToZero) {
  Engine engine;
  bool fired = false;
  engine.schedule_in(Duration{-100}, [&] { fired = true; });
  engine.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.now(), Time::zero());
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  const EventHandle handle = engine.schedule_at(Time{100}, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(handle));
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, DoubleCancelReturnsFalse) {
  Engine engine;
  const EventHandle handle = engine.schedule_at(Time{100}, [] {});
  EXPECT_TRUE(engine.cancel(handle));
  EXPECT_FALSE(engine.cancel(handle));
}

TEST(Engine, InvalidHandleCancelReturnsFalse) {
  Engine engine;
  EXPECT_FALSE(engine.cancel(EventHandle{}));
}

TEST(Engine, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(Time{100}, [&] { ++fired; });
  engine.schedule_at(Time{200}, [&] { ++fired; });
  engine.schedule_at(Time{300}, [&] { ++fired; });
  EXPECT_EQ(engine.run_until(Time{200}), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), Time{200});
  // The remaining event still fires later.
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockEvenWhenQueueDrains) {
  Engine engine;
  engine.run_until(Time{5'000});
  EXPECT_EQ(engine.now(), Time{5'000});
}

TEST(Engine, EventsScheduledDuringRunAreExecuted) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) engine.schedule_in(Duration{1}, recurse);
  };
  engine.schedule_at(Time{0}, recurse);
  EXPECT_EQ(engine.run(), 100u);
  EXPECT_EQ(depth, 100);
}

TEST(Engine, StepExecutesExactlyOneEvent) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(Time{1}, [&] { ++fired; });
  engine.schedule_at(Time{2}, [&] { ++fired; });
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine.step());
  EXPECT_FALSE(engine.step());
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PendingEventsTracksCancellations) {
  Engine engine;
  const auto h1 = engine.schedule_at(Time{1}, [] {});
  engine.schedule_at(Time{2}, [] {});
  EXPECT_EQ(engine.pending_events(), 2u);
  engine.cancel(h1);
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run();
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.events_fired(), 1u);
}

TEST(Engine, CancelledEventBeforeDeadlineDoesNotBlockRunUntil) {
  Engine engine;
  const auto h = engine.schedule_at(Time{100}, [] {});
  engine.schedule_at(Time{150}, [] {});
  engine.cancel(h);
  EXPECT_EQ(engine.run_until(Time{200}), 1u);
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine engine;
  int fired = 0;
  const auto h = engine.schedule_at(Time{100}, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(engine.cancel(h));
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(Engine, StaleHandleDoesNotCancelSlotReuse) {
  // After the first event fires, its pool slot is recycled for the next
  // event under a fresh generation; the stale handle must not cancel the
  // newcomer even though both name the same slot.
  Engine engine;
  const auto stale = engine.schedule_at(Time{100}, [] {});
  engine.run();
  bool second_fired = false;
  const auto fresh = engine.schedule_at(Time{200}, [&] { second_fired = true; });
  EXPECT_FALSE(engine.cancel(stale));
  engine.run();
  EXPECT_TRUE(second_fired);
  // And the fresh handle goes stale in turn.
  EXPECT_FALSE(engine.cancel(fresh));
}

TEST(Engine, CancelledHandleStaysDeadAfterSlotReuse) {
  Engine engine;
  const auto h = engine.schedule_at(Time{100}, [] {});
  EXPECT_TRUE(engine.cancel(h));
  bool fired = false;
  engine.schedule_at(Time{50}, [&] { fired = true; });  // reuses the slot
  EXPECT_FALSE(engine.cancel(h));
  engine.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, SameInstantOrderSurvivesInterleavedCancels) {
  Engine engine;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 20; ++i) {
    handles.push_back(engine.schedule_at(Time{50}, [&order, i] { order.push_back(i); }));
  }
  // Cancel every third event; survivors must still fire in scheduling order.
  for (std::size_t i = 0; i < handles.size(); i += 3) EXPECT_TRUE(engine.cancel(handles[i]));
  engine.run();
  std::vector<int> expected;
  for (int i = 0; i < 20; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(Engine, SameInstantScheduledDuringRunFiresAfterEarlierPeers) {
  // An event scheduled *for now* from inside a handler gets a later seq, so
  // it fires after events already queued for the same instant.
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(Time{10}, [&] {
    order.push_back(0);
    engine.schedule_at(Time{10}, [&] { order.push_back(2); });
  });
  engine.schedule_at(Time{10}, [&] { order.push_back(1); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, PoolGrowsUnderBurstAndStaysWarmAcrossBursts) {
  // Fig 2c peak: 1066 events inside one 100 us window. The pool must grow
  // to cover the burst, then absorb identical bursts with no further
  // growth — the allocation-free steady state.
  Engine engine;
  std::uint64_t fired = 0;
  auto burst = [&engine, &fired](Time base) {
    for (int i = 0; i < 1'066; ++i) {
      const auto offset = sim::nanos(static_cast<std::int64_t>((i * 94) % 100'000));
      engine.schedule_at(base + offset, [&fired] { ++fired; });
    }
  };
  burst(Time{0});
  EXPECT_EQ(engine.pool_in_use(), 1'066u);
  EXPECT_GE(engine.pool_capacity(), 1'066u);
  const std::size_t grown = engine.pool_capacity();
  engine.run();
  EXPECT_EQ(fired, 1'066u);
  EXPECT_EQ(engine.pool_in_use(), 0u);
  for (int round = 1; round <= 3; ++round) {
    burst(engine.now() + sim::millis(std::int64_t{1}));
    engine.run();
    EXPECT_EQ(engine.pool_capacity(), grown) << "burst round " << round << " grew the pool";
  }
  EXPECT_EQ(fired, 4u * 1'066u);
}

TEST(Engine, ReservePrewarmsPool) {
  Engine engine;
  engine.reserve(2'000);
  EXPECT_GE(engine.pool_capacity(), 2'000u);
  const std::size_t capacity = engine.pool_capacity();
  for (int i = 0; i < 2'000; ++i) engine.schedule_at(Time{i}, [] {});
  EXPECT_EQ(engine.pool_capacity(), capacity);
  engine.run();
}

TEST(Engine, ManyCancelsStayCheap) {
  // Regression guard for the old O(n) cancelled-list scan: cancelling tens
  // of thousands of pending events (and popping past their stale heap
  // entries) must complete quickly. Run as a functional check; the perf
  // shape is covered by bench_micro_hotpaths.
  Engine engine;
  std::vector<EventHandle> handles;
  handles.reserve(50'000);
  for (int i = 0; i < 50'000; ++i) {
    handles.push_back(engine.schedule_at(Time{i}, [] {}));
  }
  for (auto& h : handles) EXPECT_TRUE(engine.cancel(h));
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.run(), 0u);
  EXPECT_EQ(engine.events_fired(), 0u);
}

// A seeded mix of schedule (with same-instant ties), cancel and step on
// `sched`, checked event by event against a reference ordered by (time,
// scheduling order). `step` fires at least the earliest pending event;
// `drain` fires the rest. Every cancel's result is checked too, and after
// every operation the heap must hold at most 2 x live + slack entries.
// Cancels mostly hit recent, still-pending events, so stale entries pile up
// and purges run mid-storm (counted: a cancel that shrinks the heap).
struct CancelStorm {
  struct Pending {
    Time at;
    std::uint64_t order = 0;
    auto operator<=>(const Pending&) const = default;
  };

  std::set<Pending> reference;  // pending events, next to fire first
  std::uint64_t fired = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t wrong_cancels = 0;
  std::uint64_t heap_over_bound = 0;
  std::uint64_t purges = 0;

  void run(Scheduler& sched, const std::function<void()>& step,
           const std::function<void()>& drain, const std::function<std::size_t()>& heap_entries,
           std::uint64_t seed) {
    Rng rng{seed};
    std::vector<std::pair<EventHandle, Pending>> scheduled;
    std::uint64_t order = 0;
    for (int op = 0; op < 20'000; ++op) {
      const std::uint64_t pick = rng.next_below(10);
      if (pick < 4) {
        // Half near-term events, half far-off timers (the retransmit-timer
        // shape), eight instants each: most schedules tie with another.
        const std::int64_t base = rng.bernoulli(0.5) ? 0 : 1'000'000;
        const Time at =
            sched.now() + Duration{base + static_cast<std::int64_t>(rng.next_below(8)) * 1'000};
        const Pending pending{at, order++};
        CancelStorm* self = this;
        Scheduler* clock = &sched;
        scheduled.emplace_back(sched.schedule_at(at, [self, clock, pending] {
                                 self->on_fire(*clock, pending);
                               }),
                               pending);
        reference.insert(pending);
      } else if (pick < 8 && !scheduled.empty()) {
        // One of the 32 newest handles: fired and cancelled ones must refuse.
        const std::size_t recent = std::min<std::size_t>(scheduled.size(), 32);
        const auto& [handle, pending] =
            scheduled[scheduled.size() - 1 - rng.next_below(recent)];
        const bool live = reference.erase(pending) == 1;
        const std::size_t entries = heap_entries();
        if (sched.cancel(handle) != live) ++wrong_cancels;
        if (heap_entries() < entries) ++purges;
      } else {
        step();
      }
      if (heap_entries() > 2 * reference.size() + EventQueue::kStaleSlack) ++heap_over_bound;
    }
    drain();
  }

  void on_fire(const Scheduler& sched, const Pending& pending) {
    ++fired;
    if (reference.empty() || *reference.begin() != pending || sched.now() != pending.at) {
      ++out_of_order;
    }
    reference.erase(pending);
  }
};

TEST(Engine, CancelStormFiresInTimeThenSchedulingOrder) {
  Engine engine;
  CancelStorm storm;
  storm.run(
      engine, [&engine] { engine.step(); }, [&engine] { engine.run(); },
      [&engine] { return engine.heap_entries(); }, 0x5eed);
  EXPECT_GT(storm.fired, 1'000u);
  EXPECT_GT(storm.purges, 0u);
  EXPECT_EQ(storm.out_of_order, 0u);
  EXPECT_EQ(storm.wrong_cancels, 0u);
  EXPECT_EQ(storm.heap_over_bound, 0u);
  EXPECT_TRUE(storm.reference.empty());
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(Domain, CancelStormFiresInTimeThenSchedulingOrder) {
  ShardedEngine engine{{.domains = 2}};
  Domain& domain = engine.domain(1);
  CancelStorm storm;
  Rng steps{0xd0a1};
  storm.run(
      domain,
      [&engine, &steps] {
        engine.run_until(engine.now() +
                         Duration{static_cast<std::int64_t>(steps.next_below(3)) * 1'000});
      },
      [&engine] { engine.run(); }, [&domain] { return domain.heap_entries(); }, 0xd0a1);
  EXPECT_GT(storm.fired, 1'000u);
  EXPECT_GT(storm.purges, 0u);
  EXPECT_EQ(storm.out_of_order, 0u);
  EXPECT_EQ(storm.wrong_cancels, 0u);
  EXPECT_EQ(storm.heap_over_bound, 0u);
  EXPECT_TRUE(storm.reference.empty());
  EXPECT_EQ(domain.pending_events(), 0u);
}

TEST(Engine, CancelledTimersArePurgedFromTheHeap) {
  // A retransmit timer re-armed on every send leaves one cancelled entry
  // per send; the heap must not keep them all.
  Engine engine;
  std::vector<EventHandle> handles;
  std::vector<int> order;
  for (int i = 0; i < 10'000; ++i) {
    handles.push_back(engine.schedule_at(Time{1'000 + (i * 37) % 101},
                                         [&order, i] { order.push_back(i); }));
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (i % 100 != 0) {
      EXPECT_TRUE(engine.cancel(handles[i]));
    }
  }
  ASSERT_EQ(engine.pending_events(), 100u);
  EXPECT_LE(engine.heap_entries(), 2 * engine.pending_events() + EventQueue::kStaleSlack);

  // Survivors fire by time, then in scheduling order.
  std::vector<std::pair<int, int>> expected;  // (time, index)
  for (int i = 0; i < 10'000; i += 100) expected.emplace_back(1'000 + (i * 37) % 101, i);
  std::sort(expected.begin(), expected.end());
  engine.run();
  ASSERT_EQ(order.size(), expected.size());
  for (std::size_t k = 0; k < order.size(); ++k) EXPECT_EQ(order[k], expected[k].second);
  EXPECT_EQ(engine.heap_entries(), 0u);
}

}  // namespace
}  // namespace tsn::sim
