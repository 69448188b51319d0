// session_storm: 100k in-process order-entry sessions from
// exchange::LoadGen against one exchange::Exchange — admission ramp, steady
// churn, then a 10k-session kill storm (the bench_session_scale scenario).
// No fabric, no multicast, no normalizer: the load enters through the
// exchange's direct (TCP-less) session transport.
#include <deque>
#include <memory>

#include "exchange/exchange.hpp"
#include "exchange/loadgen.hpp"
#include "proto/partition.hpp"
#include "sim/engine.hpp"
#include "timed_scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tsn;

constexpr std::uint32_t kSessions = 100'000;
constexpr std::uint32_t kStormKill = 10'000;
constexpr sim::Duration kRecoveryCeiling = sim::millis(std::int64_t{10});
constexpr sim::Time kAdmittedBy = sim::Time::zero() + sim::millis(std::int64_t{5});
constexpr sim::Time kStormAt = sim::Time::zero() + sim::millis(std::int64_t{24});
constexpr sim::Time kEnd = sim::Time::zero() + sim::millis(std::int64_t{34});

struct StormOutputs {
  bool admitted = false;
  std::uint32_t storm_dropped = 0;
  bool recovered = false;
  sim::Duration recovery;
  exchange::LoadGenStats stats;
  std::uint64_t digest = 0;

  // Inbound BOE messages LoadGen sent: logins, orders, cancels, heartbeat
  // answers and replay requests.
  [[nodiscard]] std::uint64_t inbound() const noexcept {
    return stats.logins_sent + stats.orders_sent + stats.cancels_sent +
           stats.heartbeats_answered + stats.replays_requested;
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept {
    return stats.logins_sent + stats.orders_sent + stats.cancels_sent;
  }
  // Idempotent resubmissions the exchange rejects as duplicates are
  // expected and counted apart (LoadGenStats::duplicate_rejects).
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return stats.login_rejects + stats.order_rejects + stats.cancel_rejects;
  }
};

// The bench_session_scale rig, each component on its layer's scheduler
// when traced.
class StormRig {
 public:
  StormRig(std::uint64_t seed, bool traced) {
    exchange::ExchangeConfig xcfg;
    xcfg.name = "SCALE";
    xcfg.symbols = {{proto::Symbol{"AAPL"}}, {proto::Symbol{"MSFT"}},
                    {proto::Symbol{"NVDA"}}, {proto::Symbol{"AMZN"}}};
    xcfg.feed_partitioning = std::make_shared<proto::AlphabetPartition>(2);
    xcfg.cancel_on_disconnect = true;
    xcfg.heartbeat_interval = sim::millis(std::int64_t{5});
    xcfg.session_timeout = sim::millis(std::int64_t{50});
    xcfg.session_shards = 128;
    xcfg.sharded_liveness_sweep = true;
    xcfg.expected_sessions = kSessions + kSessions / 8;
    xcfg.expected_open_orders = static_cast<std::size_t>(kSessions) * 8;
    xcfg.expected_journal_bytes = std::size_t{96} << 20;
    exchange_ = std::make_unique<exchange::Exchange>(scheduler_for(traced, Layer::kExchange), xcfg);

    exchange::LoadGenConfig gcfg;
    gcfg.sessions = kSessions;
    gcfg.seed = seed;
    gcfg.logins_per_tick = 5'000;
    gcfg.target_open_orders = 2;
    gcfg.burst_size = 2;
    gen_ = std::make_unique<exchange::LoadGen>(scheduler_for(traced, Layer::kHarness), *exchange_,
                                              gcfg);
    exchange_->start_heartbeats();
  }
  StormRig(const StormRig&) = delete;
  StormRig& operator=(const StormRig&) = delete;

  StormOutputs run(WindowClock& windows) {
    StormOutputs out;
    windows.arm(engine_, sim::Time::zero(), kEnd);
    gen_->start();
    engine_.run_until(kAdmittedBy);
    out.admitted = gen_->all_admitted();
    engine_.run_until(kStormAt);
    out.storm_dropped = gen_->storm(kStormKill);
    engine_.run_until(kEnd);
    out.recovered = gen_->storm_recovered();
    out.recovery = out.recovered ? gen_->storm_recovery_duration() : sim::Duration::max();
    out.stats = gen_->stats();

    Fnv fold;
    fold.mix(gen_->fingerprint());
    fold.mix(exchange_->econ_digest());
    const exchange::ExchangeStats& xs = exchange_->stats();
    for (const std::uint64_t v :
         {xs.feed_messages, xs.feed_datagrams, xs.orders_received, xs.orders_accepted,
          xs.orders_rejected, xs.cancels_received, xs.cancel_rejects, xs.heartbeats_sent,
          xs.sessions_timed_out, xs.sessions_resumed, xs.replays_served, xs.replayed_messages,
          xs.cod_sessions, xs.cod_orders_cancelled, xs.duplicate_client_ids_rejected}) {
      fold.mix(v);
    }
    fold.mix(static_cast<std::uint64_t>(out.recovery.picos()));
    out.digest = fold.hash;
    return out;
  }

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const LayerLedger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] exchange::Exchange& exch() noexcept { return *exchange_; }

 private:
  sim::Scheduler& scheduler_for(bool traced, Layer layer) {
    if (!traced) return engine_;
    return facades_.emplace_back(engine_, ledger_, layer);
  }

  LayerLedger ledger_;
  // Declared before the engine: they must outlive its pending thunks.
  std::deque<TimedScheduler> facades_;
  sim::Engine engine_;
  std::unique_ptr<exchange::Exchange> exchange_;
  std::unique_ptr<exchange::LoadGen> gen_;
};

void check_outputs(Result& result, const StormOutputs& out, const StormOutputs& first) {
  result.check(out.admitted, "session_storm: not every session was admitted by 5 sim-ms");
  result.check(out.storm_dropped == kStormKill && out.recovered && out.recovery < kRecoveryCeiling,
               "session_storm: the storm did not recover within the 10 sim-ms ceiling");
  result.check(out.digest == first.digest, "session_storm: outputs differ between repetitions");
}

std::vector<Metric> layer_rows(StormRig& rig, const StormOutputs& out, double span_s,
                               std::uint64_t events, std::uint64_t markers) {
  const LayerLedger& ledger = rig.ledger();
  const std::uint64_t msgs = out.inbound();
  const double span_ns = span_s * 1e9;
  exchange::Exchange& exch = rig.exch();
  const exchange::ExchangeStats& xs = exch.stats();
  const exchange::SessionStoreStats& store = exch.session_store().stats();
  std::uint64_t resting = 0;
  for (const exchange::SymbolSpec& spec : exch.symbols()) resting += exch.book(spec.symbol).open_orders();
  return {
      {"sim.events_per_msg", per(static_cast<double>(events - markers), msgs), "events/msg"},
      {"sim.sched_ns_per_event", per(span_ns - static_cast<double>(ledger.total_ns()), events),
       "ns"},
      {"exchange.ns_per_msg", per(ledger.ns_of(Layer::kExchange), msgs), "ns"},
      {"exchange.share", ledger.ns_of(Layer::kExchange) / span_ns, "ratio"},
      {"exchange.feed_msgs_per_datagram",
       per(static_cast<double>(xs.feed_messages), xs.feed_datagrams), "msgs/datagram"},
      {"exchange.journal_appends_per_flush",
       per(static_cast<double>(store.journal_appends), store.journal_flushes), "appends/flush"},
      {"exchange.replayed_messages", static_cast<double>(xs.replayed_messages), "count"},
      {"exchange.cod_orders_cancelled", static_cast<double>(xs.cod_orders_cancelled), "count"},
      {"book.resting_orders", static_cast<double>(resting), "count"},
      {"harness.ns_per_msg", per(ledger.ns_of(Layer::kHarness), msgs), "ns"},
      {"harness.share", ledger.ns_of(Layer::kHarness) / span_ns, "ratio"},
  };
}

}  // namespace

Result run_session_storm(const Options& options) {
  Result result;
  StormOutputs first;

  if (!options.trace) {
    TimedReps reps;
    repeat_for(options.seconds, 3, [&](std::size_t i) {
      WindowClock windows;
      const auto setup_start = Clock::now();
      StormRig rig{options.seed, false};
      const auto span_start = Clock::now();
      const StormOutputs out = rig.run(windows);
      const auto span_end = Clock::now();
      if (i == 0) first = out;
      check_outputs(result, out, first);
      reps.add(seconds_between(setup_start, span_start), static_cast<double>(out.inbound()),
               seconds_between(span_start, span_end), windows.window_us());
    });
    std::printf("session_storm: %llu inbound BOE messages per rep; storm recovered in %.3f sim-ms\n",
                static_cast<unsigned long long>(first.inbound()), first.recovery.millis());
    result.attempted = first.attempted();
    result.failed = first.failed();
    reps.report(result);
    return result;
  }

  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<std::vector<Metric>> layer_reps;
  repeat_for(options.seconds, 2, [&](std::size_t i) {
    {
      WindowClock windows;
      StormRig rig{options.seed, false};
      const auto start = Clock::now();
      const StormOutputs out = rig.run(windows);
      untraced_s.push_back(seconds_between(start, Clock::now()));
      if (i == 0) first = out;
      check_outputs(result, out, first);
    }
    WindowClock windows;
    StormRig rig{options.seed, true};
    const std::uint64_t events_before = rig.engine().events_fired();
    const auto start = Clock::now();
    const StormOutputs out = rig.run(windows);
    const double span_s = seconds_between(start, Clock::now());
    traced_s.push_back(span_s);
    result.check(out.digest == first.digest,
                 "session_storm: traced outputs differ from the untraced run's");
    layer_reps.push_back(layer_rows(rig, out, span_s, rig.engine().events_fired() - events_before,
                                    windows.markers()));
  });
  result.attempted = first.attempted();
  result.failed = first.failed();
  for (Metric& row : median_rows(layer_reps)) result.metrics.push_back(std::move(row));
  result.metric("trace.overhead_share", median(traced_s) / median(untraced_s) - 1.0, "ratio");
  return result;
}

}  // namespace perfbench
