// Domain / ShardedEngine semantics: the Scheduler interface contract,
// domain-qualified handles, golden-mode byte-identity with the plain
// Engine, and worker-count-independent windowed determinism.
#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/domain.hpp"
#include "sim/engine.hpp"
#include "telemetry/trace.hpp"

namespace tsn::sim {
namespace {

constexpr Duration kHop = nanos(std::int64_t{5});

// One executed event: (fire time in picos, scripted tag). Byte-identity
// between two runs means these sequences compare equal element-for-element.
using Firing = std::pair<std::int64_t, int>;

// The scripted workload: four logical regions, each seeding a chain of
// local events that also hands work to the ring-next region. `local[i]`
// schedules on region i; `post(src, dst, at, tag)` crosses regions. The
// plain-Engine run maps every region to the same engine and every post to
// a plain schedule_at — exactly what golden mode must reproduce.
struct Script {
  std::function<Scheduler&(int)> local;
  std::function<void(int, int, Time, int)> post;
};

// The script must outlive the engine run: scheduled events call back into
// `script.post`.
void run_script(const Script& script, std::array<std::vector<Firing>*, 4> out) {
  const Script* sc = &script;
  for (int region = 0; region < 4; ++region) {
    Scheduler* sched = &script.local(region);
    for (int k = 0; k < 3; ++k) {
      // Deliberate same-instant ties across regions and within a region.
      const Time at = Time::zero() + nanos(std::int64_t{10 * (k + 1)});
      auto* fired = out[static_cast<std::size_t>(region)];
      const int tag = 100 * region + k;
      sched->schedule_at(at, [sc, sched, fired, region, tag] {
        fired->emplace_back(sched->now().picos(), tag);
        // Chain one local follow-up and one cross-region hand-off, the
        // hand-off at exactly the lookahead bound.
        const int next_tag = tag + 10;
        sched->schedule_in(nanos(std::int64_t{7}), [sched, fired, next_tag] {
          fired->emplace_back(sched->now().picos(), next_tag);
        });
        sc->post(region, (region + 1) % 4, sched->now() + kHop, tag + 1000);
      });
    }
  }
}

// Collects a plain-Engine reference run of the script.
std::vector<Firing> plain_reference() {
  Engine engine;
  std::vector<Firing> fired;
  std::array<std::vector<Firing>*, 4> out{&fired, &fired, &fired, &fired};
  Script script;
  script.local = [&engine](int) -> Scheduler& { return engine; };
  script.post = [&engine, &fired](int, int, Time at, int tag) {
    engine.schedule_at(at, [&engine, &fired, tag] {
      fired.emplace_back(engine.now().picos(), tag);
    });
  };
  run_script(script, out);
  engine.run();
  return fired;
}

Script sharded_script(ShardedEngine& engine, std::array<std::vector<Firing>*, 4> out) {
  Script script;
  script.local = [&engine](int region) -> Scheduler& {
    return engine.domain(static_cast<DomainId>(region));
  };
  script.post = [&engine, out](int src, int dst, Time at, int tag) {
    Domain& sink = engine.domain(static_cast<DomainId>(dst));
    auto* fired = out[static_cast<std::size_t>(dst)];
    engine.domain(static_cast<DomainId>(src))
        .post_to(static_cast<DomainId>(dst), at, [&sink, fired, tag] {
          fired->emplace_back(sink.now().picos(), tag);
        });
  };
  return script;
}

TEST(Scheduler, EngineImplementsTheInterface) {
  Engine engine;
  Scheduler& sched = engine;
  EXPECT_EQ(sched.domain_id(), kMainDomain);
  int hits = 0;
  sched.schedule_in(Duration{-50}, [&hits] { ++hits; });  // clamps to now
  const EventHandle handle = sched.schedule_at(Time{100}, [&hits] { ++hits; });
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(handle.domain(), kMainDomain);
  EXPECT_TRUE(sched.cancel(handle));
  engine.run();
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(EventHandle{}.valid());
}

TEST(Scheduler, DomainImplementsTheInterface) {
  ShardedEngine engine{{.domains = 2}};
  Scheduler& sched = engine.domain(1);
  EXPECT_EQ(sched.domain_id(), DomainId{1});
  int hits = 0;
  const EventHandle handle = sched.schedule_at(Time{100}, [&hits] { ++hits; });
  EXPECT_EQ(handle.domain(), DomainId{1});
  EXPECT_TRUE(sched.cancel(handle));
  engine.run();
  EXPECT_EQ(hits, 0);
}

TEST(Scheduler, CrossDomainCancelIsRejected) {
  ShardedEngine engine{{.domains = 2}};
  const EventHandle foreign = engine.domain(1).schedule_at(Time{100}, [] {});
#ifdef NDEBUG
  // Release: refused, not silently honoured — the event still fires.
  Engine plain;
  EXPECT_FALSE(plain.cancel(foreign));
  EXPECT_FALSE(engine.domain(0).cancel(foreign));
  EXPECT_EQ(engine.run(), 1u);
#else
  EXPECT_DEATH(static_cast<void>(engine.domain(0).cancel(foreign)),
               "wrong domain's scheduler");
#endif
}

TEST(ShardedEngine, GoldenModeIsByteIdenticalToPlainEngine) {
  const std::vector<Firing> reference = plain_reference();
  ASSERT_FALSE(reference.empty());

  ShardedEngine engine{{.domains = 4, .num_workers = 1}};
  ASSERT_TRUE(engine.golden());
  std::vector<Firing> fired;
  std::array<std::vector<Firing>*, 4> out{&fired, &fired, &fired, &fired};
  const Script script = sharded_script(engine, out);
  run_script(script, out);
  engine.run();
  EXPECT_EQ(fired, reference);
}

TEST(ShardedEngine, WindowedModeMatchesGoldenPerDomainAtAnyWorkerCount) {
  // Golden per-domain firing sequences are the oracle; windowed execution
  // must reproduce them exactly at every worker count — one thread owning
  // two domains at 2 workers, the helper cap at 16 — and across repeated
  // runs (the run-twice determinism gate).
  std::array<std::vector<Firing>, 4> golden;
  {
    ShardedEngine engine{{.domains = 4, .mode = SyncMode::kGolden}};
    std::array<std::vector<Firing>*, 4> out{&golden[0], &golden[1], &golden[2], &golden[3]};
    const Script script = sharded_script(engine, out);
    run_script(script, out);
    engine.note_cross_domain_delay(kHop);
    engine.run();
  }
  ASSERT_FALSE(golden[0].empty());

  for (const std::uint32_t workers : {1u, 2u, 3u, 4u, 16u}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      ShardedEngine engine{
          {.domains = 4, .num_workers = workers, .mode = SyncMode::kWindowed}};
      ASSERT_FALSE(engine.golden());
      std::array<std::vector<Firing>, 4> fired;
      std::array<std::vector<Firing>*, 4> out{&fired[0], &fired[1], &fired[2], &fired[3]};
      const Script script = sharded_script(engine, out);
      run_script(script, out);
      engine.note_cross_domain_delay(kHop);
      engine.run();
      // The calling thread owns domain 0: no helper is started without a
      // domain of its own, whatever num_workers asks for.
      EXPECT_LE(engine.helper_threads(), 3u) << "workers " << workers;
      if (workers == 1) {
        EXPECT_EQ(engine.helper_threads(), 0u);
      }
      for (std::size_t d = 0; d < 4; ++d) {
        EXPECT_EQ(fired[d], golden[d]) << "domain " << d << " workers " << workers
                                       << " repeat " << repeat;
      }
    }
  }
}

TEST(ShardedEngine, RunUntilAdvancesEveryDomainClock) {
  ShardedEngine engine{{.domains = 3, .num_workers = 2, .mode = SyncMode::kWindowed}};
  engine.note_cross_domain_delay(kHop);
  int hits = 0;
  engine.domain(1).schedule_at(Time::zero() + nanos(std::int64_t{20}), [&hits] { ++hits; });
  const Time deadline = Time::zero() + nanos(std::int64_t{100});
  engine.run_until(deadline);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(engine.now(), deadline);
  for (DomainId d = 0; d < 3; ++d) EXPECT_EQ(engine.domain(d).now(), deadline);
}

TEST(ShardedEngine, UnboundedLookaheadRunsWithoutOverflow) {
  // No cross-domain links registered: lookahead stays Duration::max() and
  // each domain free-runs its whole queue in one saturated window.
  ShardedEngine engine{{.domains = 2, .num_workers = 2, .mode = SyncMode::kWindowed}};
  // Both domains run in the same window on different threads.
  std::atomic<int> hits{0};
  engine.domain(0).schedule_at(Time{1'000}, [&hits] { ++hits; });
  engine.domain(1).schedule_at(Time{2'000}, [&hits] { ++hits; });
  EXPECT_EQ(engine.run(), 2u);
  EXPECT_EQ(hits.load(), 2);
}

TEST(ShardedEngine, PostToIsDeliveredAtTheRequestedTime) {
  ShardedEngine engine{{.domains = 2, .num_workers = 2, .mode = SyncMode::kWindowed}};
  engine.note_cross_domain_delay(kHop);
  Time delivered = Time::zero();
  Domain& src = engine.domain(0);
  Domain& dst = engine.domain(1);
  src.schedule_at(Time::zero() + nanos(std::int64_t{10}), [&src, &dst, &delivered] {
    src.post_to(1, src.now() + kHop, [&dst, &delivered] { delivered = dst.now(); });
  });
  engine.run();
  EXPECT_EQ(delivered, Time::zero() + nanos(std::int64_t{15}));
}

// The PR 7 leftover, fixed: a ScopedTraceSink on the coordinating thread
// never follows a domain onto a windowed-mode worker thread, so spans
// recorded there were silently dropped. Shard-local sinks installed via
// Domain::set_context travel with the domain instead: windowed runs at any
// worker count must deposit exactly the span sequences a golden run does.
TEST(ShardedEngine, ShardContextKeepsSpansAcrossWorkerThreads) {
  constexpr std::uint32_t kDomains = 4;
  constexpr int kEventsPerDomain = 6;

  // Each event records one kSoftware span through the *ambient* sink —
  // exactly how instrumented hops do it — so where the span lands depends
  // entirely on what is installed on the executing thread.
  const auto run_mode = [&](SyncMode mode, std::uint32_t workers,
                            std::array<telemetry::TraceSink, kDomains>& sinks) {
    ShardedEngine engine{{.domains = kDomains, .num_workers = workers, .mode = mode}};
    std::array<std::unique_ptr<telemetry::DomainTraceContext>, kDomains> contexts;
    for (DomainId d = 0; d < kDomains; ++d) {
      contexts[d] = std::make_unique<telemetry::DomainTraceContext>(sinks[d]);
      engine.domain(d).set_context(contexts[d].get());
    }
    for (DomainId d = 0; d < kDomains; ++d) {
      Domain& dom = engine.domain(d);
      for (int k = 0; k < kEventsPerDomain; ++k) {
        dom.schedule_at(Time::zero() + nanos(std::int64_t{10} * (k + 1)), [&dom] {
          telemetry::TraceSink* sink = telemetry::sink();
          ASSERT_NE(sink, nullptr) << "event ran with no ambient sink installed";
          const telemetry::TraceId trace = sink->begin_trace(dom.now());
          sink->record(telemetry::Span{trace, "hop", telemetry::SpanKind::kSoftware,
                                       dom.now(), dom.now() + nanos(std::int64_t{3})});
        });
      }
    }
    engine.note_cross_domain_delay(kHop);
    engine.run();
  };

  std::array<telemetry::TraceSink, kDomains> golden;
  run_mode(SyncMode::kGolden, 1, golden);
  for (DomainId d = 0; d < kDomains; ++d) {
    ASSERT_EQ(golden[d].spans().size(), kEventsPerDomain) << "domain " << d;
  }

  for (const std::uint32_t workers : {1u, 2u, 3u, 4u, 16u}) {
    std::array<telemetry::TraceSink, kDomains> windowed;
    run_mode(SyncMode::kWindowed, workers, windowed);
    for (DomainId d = 0; d < kDomains; ++d) {
      ASSERT_EQ(windowed[d].spans().size(), golden[d].spans().size())
          << "domain " << d << " workers " << workers;
      // Same per-shard sequences, span for span — not just equal counts.
      for (std::size_t i = 0; i < golden[d].spans().size(); ++i) {
        const telemetry::Span& g = golden[d].spans()[i];
        const telemetry::Span& w = windowed[d].spans()[i];
        EXPECT_EQ(w.trace, g.trace);
        EXPECT_EQ(w.t_in, g.t_in);
        EXPECT_EQ(w.t_out, g.t_out);
      }
      EXPECT_EQ(windowed[d].to_json(), golden[d].to_json())
          << "domain " << d << " workers " << workers;
    }
  }
}

TEST(ShardedEngine, StopRequestHaltsAllShards) {
  ShardedEngine engine{{.domains = 2, .num_workers = 1}};
  int hits = 0;
  engine.domain(0).schedule_at(Time{100}, [&engine, &hits] {
    ++hits;
    engine.request_stop();
  });
  engine.domain(1).schedule_at(Time{200}, [&hits] { ++hits; });
  engine.run();
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace tsn::sim
