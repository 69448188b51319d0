// sharded_ring: the 4-partition deploy::ShardedMarket ring run in
// sim::ShardedEngine windowed mode on nproc - 1 workers, its digest checked
// against the same rig on a plain sim::Engine outside the timed span.
#include <algorithm>
#include <memory>
#include <thread>

#include "deploy/sharded_market.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tsn;

constexpr std::uint16_t kPartitions = 4;
constexpr double kEventsPerSecond = 200'000.0;
constexpr sim::Duration kRunFor = sim::millis(std::int64_t{200});

deploy::ShardedMarketConfig market_config(std::uint64_t seed) {
  deploy::ShardedMarketConfig config;
  config.partitions = kPartitions;
  config.seed = seed;
  config.events_per_second = kEventsPerSecond;
  config.run_for = kRunFor;
  return config;
}

std::uint32_t worker_count() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 1 ? cores - 1 : 1;
}

struct RingOutputs {
  std::uint64_t digest = 0;
  std::uint64_t feed_messages = 0;
  std::uint64_t feed_datagrams = 0;
  std::uint64_t messages_lost = 0;   // over every normalizer and observer
  std::uint64_t switch_drops = 0;    // software-queue drops at the feed switches
  std::uint64_t messages_in = 0;
  std::uint64_t updates_out = 0;
  std::uint64_t replications = 0;
  std::uint64_t hw_forwarded = 0;
  std::uint64_t sw_forwarded = 0;
  std::uint64_t resting = 0;
};

RingOutputs outputs_of(deploy::ShardedMarket& market) {
  RingOutputs out;
  out.digest = market.digest();
  for (std::size_t p = 0; p < market.partition_count(); ++p) {
    exchange::Exchange& exch = market.exch(p);
    out.feed_messages += exch.stats().feed_messages;
    out.feed_datagrams += exch.stats().feed_datagrams;
    for (const exchange::SymbolSpec& spec : exch.symbols()) {
      out.resting += exch.book(spec.symbol).open_orders();
    }
    for (const trading::Normalizer* norm : {&market.norm(p), market.observer(p)}) {
      if (norm == nullptr) continue;
      out.messages_lost += norm->stats().messages_lost + norm->stats().sequence_gaps;
      out.messages_in += norm->stats().messages_in;
      out.updates_out += norm->stats().updates_out;
    }
    const l2::SwitchStats& s = market.xsw(p).stats();
    out.switch_drops += s.software_queue_drops;
    out.replications += s.replications;
    out.hw_forwarded += s.multicast_hw_forwarded;
    out.sw_forwarded += s.multicast_sw_forwarded;
  }
  return out;
}

// The plain-engine reference: no window markers, outside any timing.
RingOutputs reference(const deploy::ShardedMarketConfig& config) {
  sim::Engine engine;
  deploy::ShardedMarket market{engine, config};
  market.run();
  return outputs_of(market);
}

struct RingRep {
  double setup_s = 0.0;
  double span_s = 0.0;
  std::vector<double> window_us;
  RingOutputs outputs;
  std::uint64_t events = 0;  // engine events, markers excluded
  double domain_imbalance = 0.0;
};

// One timed repetition on the windowed engine, or on a plain engine.
RingRep run_once(const deploy::ShardedMarketConfig& config, bool windowed) {
  RingRep rep;
  WindowClock windows;
  const sim::Time end = sim::Time::zero() + config.run_for + config.drain;
  const auto setup_start = Clock::now();
  if (windowed) {
    sim::ShardedEngine engine{{.domains = config.partitions,
                               .num_workers = worker_count(),
                               .mode = sim::SyncMode::kWindowed}};
    deploy::ShardedMarket market{engine, config};
    windows.arm(engine.domain(0), sim::Time::zero(), end);
    const auto span_start = Clock::now();
    market.run();
    rep.span_s = seconds_between(span_start, Clock::now());
    rep.setup_s = seconds_between(setup_start, span_start);
    rep.outputs = outputs_of(market);
    rep.events = engine.events_fired() - windows.markers();
    std::uint64_t busiest = 0;
    for (sim::DomainId d = 0; d < engine.domain_count(); ++d) {
      std::uint64_t fired = engine.domain(d).events_fired();
      if (d == 0) fired -= windows.markers();
      busiest = std::max(busiest, fired);
    }
    rep.domain_imbalance = static_cast<double>(busiest) * static_cast<double>(engine.domain_count()) /
                           static_cast<double>(rep.events);
  } else {
    sim::Engine engine;
    deploy::ShardedMarket market{engine, config};
    windows.arm(engine, sim::Time::zero(), end);
    const auto span_start = Clock::now();
    market.run();
    rep.span_s = seconds_between(span_start, Clock::now());
    rep.setup_s = seconds_between(setup_start, span_start);
    rep.outputs = outputs_of(market);
    rep.events = engine.events_fired() - windows.markers();
  }
  rep.window_us = windows.window_us();
  return rep;
}

void check_outputs(Result& result, const RingOutputs& out, const RingOutputs& golden) {
  result.check(out.digest == golden.digest,
               "sharded_ring: digest differs from the plain-engine reference");
  result.check(out.messages_lost == 0 && out.switch_drops == 0,
               "sharded_ring: feed messages lost");
}

}  // namespace

Result run_sharded_ring(const Options& options) {
  Result result;
  const deploy::ShardedMarketConfig config = market_config(options.seed);
  const RingOutputs golden = reference(config);
  result.attempted = golden.feed_messages;
  result.failed = golden.messages_lost + golden.switch_drops;

  if (!options.trace) {
    TimedReps reps;
    repeat_for(options.seconds, 3, [&](std::size_t) {
      const RingRep rep = run_once(config, true);
      check_outputs(result, rep.outputs, golden);
      reps.add(rep.setup_s, static_cast<double>(rep.outputs.feed_messages), rep.span_s,
               rep.window_us);
    });
    std::printf("sharded_ring: %u partitions, %u workers, %llu feed messages per rep\n",
                static_cast<unsigned>(kPartitions), worker_count(),
                static_cast<unsigned long long>(golden.feed_messages));
    reps.report(result);
    return result;
  }

  // No facades can reach inside ShardedMarket; the traced run compares the
  // windowed engine with a plain one on the same rig.
  std::vector<double> plain_s;
  std::vector<double> windowed_s;
  std::vector<std::vector<Metric>> rows;
  repeat_for(options.seconds, 2, [&](std::size_t) {
    const RingRep plain = run_once(config, false);
    check_outputs(result, plain.outputs, golden);
    plain_s.push_back(plain.span_s);
    const RingRep rep = run_once(config, true);
    check_outputs(result, rep.outputs, golden);
    windowed_s.push_back(rep.span_s);
    const RingOutputs& out = rep.outputs;
    rows.push_back({
        {"sim.events_per_msg", per(static_cast<double>(rep.events), out.feed_messages),
         "events/msg"},
        {"sim.domain_imbalance", rep.domain_imbalance, "ratio"},
        {"l2.replications_per_msg", per(static_cast<double>(out.replications), out.feed_messages),
         "copies/msg"},
        {"l2.sw_forwarded_share",
         per(static_cast<double>(out.sw_forwarded), out.hw_forwarded + out.sw_forwarded), "ratio"},
        {"trading.normalizer.updates_per_msg",
         per(static_cast<double>(out.updates_out), out.messages_in), "updates/msg"},
        {"exchange.feed_msgs_per_datagram",
         per(static_cast<double>(out.feed_messages), out.feed_datagrams), "msgs/datagram"},
        {"book.resting_orders", static_cast<double>(out.resting), "count"},
    });
  });
  for (Metric& row : median_rows(rows)) result.metrics.push_back(std::move(row));
  result.metric("sim.plain_speedup", median(plain_s) / median(windowed_s), "x");
  return result;
}

}  // namespace perfbench
