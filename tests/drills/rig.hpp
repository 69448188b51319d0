// The failure-drill rig (§4): one engine, fabric and fault injector around
// a venue exchange, and the parts a drill builds on them.
//
//   venue            the primary exchange, from the ExchangeConfig the drill
//                    passes (ab_feed_venue, session_venue, failover_venue).
//   add_standby      a hot standby: the backup exchange, a replication
//                    bridge on its own cable, a FailoverController, and the
//                    order-plane switch both boxes sit on. The backup
//                    publishes muted and refuses logins until promoted.
//   add_ab_consumer  exchange --tap--> switch --{A,B}--> LineArbiter -->
//                    Normalizer, with the snapshot channel on a third
//                    switch port. The tap records the published A-line
//                    stream ahead of any fault target, as ground truth.
//   add_single_line  the control consumer: the same switch, and a
//                    Normalizer on the A port with no arbitration.
//   add_trader       a gateway and its strategy's BOE leg. With a standby,
//                    the gateway reaches both boxes through the order-plane
//                    switch and re-homes fast; without, it has a direct
//                    uplink to the venue.
//   watch_feed       a consumer on the venue's (and standby's) feed NIC:
//                    counts adds, deletes, executions and sequence gaps, and
//                    keeps the raw bytes.
//
// A drill's faults are a plan: fault::FaultEvents, the records the
// injector's log writes, naming targets by the names the rig registers. So
// one run's log() replays as the next run's plan. The load is background
// market activity with a burst window (DrillScenario), or a scripted
// timeline of trader orders and crossing liquidity. Events at one instant
// fire in scheduling order: probes armed before run(), then the rig's
// starts and logins, then the plan, then the load.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "boe_client.hpp"
#include "capture/tap.hpp"
#include "exchange/activity.hpp"
#include "exchange/exchange.hpp"
#include "exchange/failover.hpp"
#include "exchange/replica.hpp"
#include "fault/injector.hpp"
#include "l2/commodity_switch.hpp"
#include "net/fabric.hpp"
#include "net/headers.hpp"
#include "net/stack.hpp"
#include "proto/pitch.hpp"
#include "sim/engine.hpp"
#include "telemetry/metrics.hpp"
#include "trading/arbiter.hpp"
#include "trading/gateway.hpp"
#include "trading/normalizer.hpp"

namespace tsn::drills {

using Plan = std::vector<fault::FaultEvent>;

[[nodiscard]] inline sim::Time at_us(std::int64_t us) {
  return sim::Time::zero() + sim::micros(us);
}

// One link flap: admin-down at `at`, admin-up `duration` later.
[[nodiscard]] inline Plan flap(const std::string& target, sim::Time at, sim::Duration duration) {
  return {{at, fault::FaultKind::kLinkDown, target, 0.0},
          {at + duration, fault::FaultKind::kLinkUp, target, 0.0}};
}

// A triangular loss ramp, weather moving across a microwave path (§2): the
// override climbs in equal steps to `peak` over `rise` (the last step is
// the peak), walks back down over `fall`, then clears. Four steps give
// seven loss_set events and one loss_clear.
[[nodiscard]] inline Plan loss_ramp(const std::string& target, sim::Time start,
                                    sim::Duration rise, sim::Duration fall, double peak) {
  constexpr std::int64_t kSteps = 4;
  const auto level = [peak](std::int64_t k) {
    return peak * static_cast<double>(k) / static_cast<double>(kSteps);
  };
  Plan plan;
  for (std::int64_t k = 1; k <= kSteps; ++k) {
    plan.push_back({start + sim::Duration{rise.picos() * (k - 1) / kSteps},
                    fault::FaultKind::kLossSet, target, level(k)});
  }
  for (std::int64_t k = 1; k < kSteps; ++k) {
    plan.push_back({start + rise + sim::Duration{fall.picos() * k / kSteps},
                    fault::FaultKind::kLossSet, target, level(kSteps - k)});
  }
  plan.push_back({start + rise + fall, fault::FaultKind::kLossClear, target, 0.0});
  return plan;
}

// The A/B drills' venue: two symbols, dual-published, 5 ms snapshots.
[[nodiscard]] inline exchange::ExchangeConfig ab_feed_venue() {
  exchange::ExchangeConfig config;
  config.symbols = {
      {proto::Symbol{"AAA"}, proto::InstrumentKind::kEquity, proto::price_from_dollars(100)},
      {proto::Symbol{"BBB"}, proto::InstrumentKind::kEquity, proto::price_from_dollars(50)}};
  config.feed_partitioning = std::make_shared<proto::HashPartition>(1);
  config.dual_publish = true;
  config.snapshot_interval = sim::millis(std::int64_t{5});
  config.feed_mac = net::MacAddr::from_host_id(1);
  config.feed_ip = net::Ipv4Addr{10, 1, 0, 1};
  config.order_mac = net::MacAddr::from_host_id(2);
  config.order_ip = net::Ipv4Addr{10, 1, 0, 2};
  return config;
}

// The session drills' venue, with cancel-on-disconnect armed.
[[nodiscard]] inline exchange::ExchangeConfig session_venue() {
  exchange::ExchangeConfig config;
  config.symbols = {{proto::Symbol{"AAA"}, proto::InstrumentKind::kEquity,
                     proto::price_from_dollars(100)}};
  config.feed_partitioning = std::make_shared<proto::HashPartition>(1);
  // Aggressive liveness so the drill fits in tens of milliseconds: sweep
  // ticks land at 1.5ms multiples and a silent session dies at the first
  // tick past 4ms of quiet (the 9.0ms sweep, given last traffic at ~3.8ms).
  config.heartbeat_interval = sim::micros(std::int64_t{1500});
  config.session_timeout = sim::micros(std::int64_t{4000});
  config.cancel_on_disconnect = true;
  config.feed_mac = net::MacAddr::from_host_id(1);
  config.feed_ip = net::Ipv4Addr{10, 0, 0, 1};
  config.order_mac = net::MacAddr::from_host_id(2);
  config.order_ip = net::Ipv4Addr{10, 0, 0, 2};
  return config;
}

// The failover drills' primary. add_standby() builds its backup from the
// same config on the next two hosts.
[[nodiscard]] inline exchange::ExchangeConfig failover_venue() {
  exchange::ExchangeConfig config;
  config.name = "PRIM";
  config.symbols = {{proto::Symbol{"AAA"}, proto::InstrumentKind::kEquity,
                     proto::price_from_dollars(100)}};
  config.feed_partitioning = std::make_shared<proto::HashPartition>(1);
  config.heartbeat_interval = sim::micros(std::int64_t{1500});
  config.session_timeout = sim::millis(std::int64_t{20});
  config.feed_mac = net::MacAddr::from_host_id(1);
  config.feed_ip = net::Ipv4Addr{10, 2, 0, 1};
  config.order_mac = net::MacAddr::from_host_id(2);
  config.order_ip = net::Ipv4Addr{10, 2, 0, 2};
  return config;
}

// Background market activity: a Fig 2c-style burst multiplies the rate by
// `burst_multiplier` inside [burst_start, burst_end).
struct DrillScenario {
  std::uint64_t seed = 1;
  sim::Duration run_for = sim::millis(std::int64_t{200});
  double events_per_second = 30'000.0;
  sim::Time burst_start;
  sim::Time burst_end;
  double burst_multiplier = 1.0;
};

// One scripted order: a day order trader `trader` sends through its
// gateway, or (trader == kBook) crossing liquidity from a participant
// outside the rig, submitted straight into the venue's book, which only
// shows on the feed as executions.
inline constexpr std::size_t kBook = ~std::size_t{0};
struct ScriptedOrder {
  std::int64_t at_us = 0;
  std::size_t trader = 0;
  proto::OrderId id = 0;  // client order id; kBook orders take the venue's next id
  proto::Side side = proto::Side::kSell;
  proto::Quantity qty = 0;
  double dollars = 0.0;
};
inline constexpr std::int64_t kScriptEndUs = 40'000;

// The session drills' timeline (trader 0; the uplink fault lands at 4ms):
//   1.0ms  order 1: sell 100 @ 100.50 (rests)
//   2.0ms  counter buy 100 @ 100.50   (fills order 1; position -100)
//   2.5ms  orders 2, 3: resting sells (200 @ 101, 300 @ 102)
//   3.6ms  order 4: sell 100 @ 103    (acked just before the fault)
//   3.8ms  order 5: sell 100 @ 104
//   4.2ms  order 6: sell 100 @ 105    (mid-outage)
//   4.4ms  order 7: sell 100 @ 106    (mid-outage)
//  16.0ms  order 8: sell 120 @ 100.45 (after recovery)
//  20.0ms  counter buy 120 @ 100.45   (fills order 8; position -220)
[[nodiscard]] inline std::vector<ScriptedOrder> session_script() {
  using proto::Side;
  return {{1000, 0, 1, Side::kSell, 100, 100.50},  {2000, kBook, 0, Side::kBuy, 100, 100.50},
          {2500, 0, 2, Side::kSell, 200, 101.0},   {2510, 0, 3, Side::kSell, 300, 102.0},
          {3600, 0, 4, Side::kSell, 100, 103.0},   {3800, 0, 5, Side::kSell, 100, 104.0},
          {4200, 0, 6, Side::kSell, 100, 105.0},   {4400, 0, 7, Side::kSell, 100, 106.0},
          {16000, 0, 8, Side::kSell, 120, 100.45}, {20000, kBook, 0, Side::kBuy, 120, 100.45}};
}

// The failover drills' two-sided timeline, all through real sessions (an
// order the replication channel never saw could not reach the backup):
// trader 0 sells, trader 1 buys.
//   1.0ms  sell 100 @ 100.50 (rests)    2.0ms  buy 100 @ 100.50 (fills 100)
//   2.5ms  sell 200 @ 101                2.6ms  sell 300 @ 102
//   3.6ms  sell 100 @ 103                3.8ms  sell 100 @ 104 (acked before a fault)
//   4.0ms  sell 100 @ 105 (in flight AT the crash instant)
//   4.2ms  sell 100 @ 106 (queued during the outage)
//   4.4ms  buy 50 @ 101 (fills 50 after recovery)
//  16.0ms  sell 120 @ 100.45            20.0ms  buy 120 @ 100.45 (fills 120)
[[nodiscard]] inline std::vector<ScriptedOrder> failover_script() {
  using proto::Side;
  return {{1000, 0, 100, Side::kSell, 100, 100.50}, {2000, 1, 200, Side::kBuy, 100, 100.50},
          {2500, 0, 101, Side::kSell, 200, 101.0},  {2600, 0, 102, Side::kSell, 300, 102.0},
          {3600, 0, 103, Side::kSell, 100, 103.0},  {3800, 0, 104, Side::kSell, 100, 104.0},
          {4000, 0, 105, Side::kSell, 100, 105.0},  {4200, 0, 106, Side::kSell, 100, 106.0},
          {4400, 1, 201, Side::kBuy, 50, 101.0},    {16000, 0, 107, Side::kSell, 120, 100.45},
          {20000, 1, 202, Side::kBuy, 120, 100.45}};
}

// A gateway and its strategy's BOE leg, which opens at login.
struct Trader {
  trading::Gateway gw;
  net::Nic nic;
  net::NetStack stack{nic};
  std::optional<BoeClient> strategy;
  std::string role;
  net::Link* uplink = nullptr;  // gateway -> venue, or -> the order-plane switch

  Trader(sim::Engine& engine, trading::GatewayConfig config, std::string name,
         std::uint8_t host, net::Ipv4Addr ip, std::string trader_role)
      : gw(engine, std::move(config)),
        nic(engine, std::move(name), net::MacAddr::from_host_id(host), ip),
        role(std::move(trader_role)) {}

  // Net position in the rig's one traded symbol.
  [[nodiscard]] std::int64_t position() const { return gw.risk().position(proto::Symbol{"AAA"}); }
};

// What watch_feed() saw.
struct FeedWatch {
  std::size_t messages = 0;
  std::size_t gaps = 0;
  int adds = 0;
  int deletes = 0;
  int execs = 0;
  std::vector<std::byte> raw;
};

class DrillRig {
 public:
  static constexpr net::PortId kIngressPort = 0;
  static constexpr net::PortId kAPort = 1;
  static constexpr net::PortId kBPort = 2;
  static constexpr net::PortId kNormPort = 3;

  explicit DrillRig(exchange::ExchangeConfig venue) : venue_(engine_, std::move(venue)) {}
  DrillRig(const DrillRig&) = delete;
  DrillRig& operator=(const DrillRig&) = delete;

  // --- parts -------------------------------------------------------------
  void add_standby() {
    standby_ = std::make_unique<Standby>(engine_, venue_);
    Standby& s = *standby_;
    // Order plane: both exchanges on one switch, so a gateway NIC can reach
    // whichever box currently leads.
    fabric_.connect(s.osw, 0, venue_.order_nic(), 0, net::LinkConfig{});
    fabric_.connect(s.osw, 1, s.backup.order_nic(), 0, net::LinkConfig{});
    s.osw.bind_host(venue_.order_nic().ip(), venue_.order_nic().mac(), 0);
    s.osw.bind_host(s.backup.order_nic().ip(), s.backup.order_nic().mac(), 1);
    // Replication bridge: its own cable, so a partition severs exactly the
    // pair's view of each other and nothing else.
    s.bridge = fabric_.connect(s.stream.nic(), 0, s.applier.nic(), 0, net::LinkConfig{});
    injector_.register_link(*s.bridge.a_to_b);
    injector_.register_link(*s.bridge.b_to_a);
    // One process = the primary exchange and its replication stream: the
    // crash kills both in the same instant.
    injector_.register_process("primary", [this] {
      venue_.crash();
      standby_->stream.crash();
    });
  }

  void add_ab_consumer() {
    tap_ = std::make_unique<capture::Tap>(engine_, "gt-tap");
    xsw_ = std::make_unique<l2::CommoditySwitch>(engine_, "xsw", switch_config());
    arb_ = std::make_unique<trading::LineArbiter>(engine_, arbiter_config());
    norm_ = std::make_unique<trading::Normalizer>(engine_, arbitrated_normalizer_config());
    // Published stream in, one tap hop ahead of any fault target.
    net::Link& to_tap = fabric_.make_link("exch->tap", net::LinkConfig{}, *tap_, 0);
    venue_.feed_nic().attach_port(0, to_tap);
    net::Link& to_xsw = fabric_.make_link("tap->xsw", net::LinkConfig{}, *xsw_, kIngressPort);
    tap_->attach_port(1, to_xsw);

    a_link_ = fabric_.connect(*xsw_, kAPort, arb_->a_nic(), 0, net::LinkConfig{}).a_to_b;
    net::Link* b_link = fabric_.connect(*xsw_, kBPort, arb_->b_nic(), 0, net::LinkConfig{}).a_to_b;
    fabric_.connect(*xsw_, kNormPort, norm_->in_nic(), 0, net::LinkConfig{});
    // Arbitrated output goes straight to the normalizer (its own path: the
    // drills fault the lines ahead of arbitration, not behind it).
    net::Link& arb_out = fabric_.make_link("arb->norm", net::LinkConfig{}, norm_->in_nic(), 0);
    arb_->out_nic().attach_port(0, arb_out);

    injector_.register_link(*a_link_);
    injector_.register_link(*b_link);
    injector_.register_switch(*xsw_);

    // Ground truth: every A-line feed datagram as published, pre-loss.
    const net::Ipv4Addr a_group = venue_.unit_group(0);
    const std::uint16_t feed_port = venue_.config().feed_port;
    tap_->set_packet_hook([this, a_group, feed_port](const net::PacketPtr& packet,
                                                     net::PortId port, sim::Time) {
      if (port != 0) return;  // exchange -> switch direction only
      const auto decoded = net::decode_frame(packet->frame());
      if (!decoded || !decoded->is_udp()) return;
      if (decoded->ip->dst != a_group || decoded->udp->dst_port != feed_port) return;
      published_.emplace_back(decoded->payload.begin(), decoded->payload.end());
    });
    arb_->set_output_tap([this](std::uint8_t, std::uint32_t, std::span<const std::byte> payload) {
      forwarded_.emplace_back(payload.begin(), payload.end());
    });
  }

  void add_single_line() {
    xsw_ = std::make_unique<l2::CommoditySwitch>(engine_, "xsw", switch_config());
    norm_ = std::make_unique<trading::Normalizer>(engine_, single_line_normalizer_config());
    net::Link& to_xsw = fabric_.make_link("exch->xsw", net::LinkConfig{}, *xsw_, kIngressPort);
    venue_.feed_nic().attach_port(0, to_xsw);
    a_link_ = fabric_.connect(*xsw_, kAPort, norm_->in_nic(), 0, net::LinkConfig{}).a_to_b;
    injector_.register_link(*a_link_);
    injector_.register_switch(*xsw_);
  }

  // Trader k: gateway hosts 20+2k and 21+2k, strategy host 30+k, on the
  // venue's subnet. `role` names it: gateway "gw-<role>" (plain "gw" when
  // empty), strategy NIC "strat-<role>", metrics "gw.<role>", and the
  // session kill target "<gateway>-uplink".
  void add_trader(const std::string& role = {}) {
    const auto k = static_cast<std::uint8_t>(traders_.size());
    const std::string suffix = role.empty() ? "" : "-" + role;
    trading::GatewayConfig config;
    config.name = "gw" + suffix;
    config.exchange_mac = venue_.order_nic().mac();
    config.exchange_ip = venue_.order_nic().ip();
    config.exchange_port = venue_.config().order_port;
    config.client_mac = net::MacAddr::from_host_id(20u + 2u * k);
    config.client_ip = on_venue_subnet(static_cast<std::uint8_t>(20 + 2 * k));
    config.upstream_mac = net::MacAddr::from_host_id(21u + 2u * k);
    config.upstream_ip = on_venue_subnet(static_cast<std::uint8_t>(21 + 2 * k));
    config.heartbeat_interval = sim::micros(std::int64_t{1500});
    if (standby_) {
      config.backup_exchanges = {{standby_->backup.order_nic().mac(),
                                  standby_->backup.order_nic().ip(),
                                  standby_->backup.config().order_port}};
      config.reconnect_backoff_initial = sim::millis(std::int64_t{2});
      // A dead box's kernel can complete handshakes it had queued; don't
      // hang in kLoggingIn waiting for an answer that will never come.
      config.reconnect_response_timeout = sim::millis(std::int64_t{1});
      config.reconnect_max_attempts = 20;
    } else {
      // First reconnect lands at ~12ms (8ms +/- 10% jitter after a 4ms
      // fault), deliberately AFTER the session venue's 9ms
      // cancel-on-disconnect sweep, so re-login always resumes a dead
      // session and replays the COD cancels rather than taking over a live
      // one.
      config.reconnect_backoff_initial = sim::millis(std::int64_t{8});
    }
    const auto strat_host = static_cast<std::uint8_t>(30 + k);
    Trader& t = traders_.emplace_back(engine_, std::move(config), "strat" + suffix, strat_host,
                                      on_venue_subnet(strat_host), role);
    net::Cable uplink;
    if (standby_) {
      const net::PortId port = 2u + k;
      const net::Cable cable =
          fabric_.connect(standby_->osw, port, t.gw.upstream_nic(), 0, net::LinkConfig{});
      uplink = net::Cable{cable.b_to_a, cable.a_to_b};
      standby_->osw.bind_host(t.gw.upstream_nic().ip(), t.gw.upstream_nic().mac(), port);
    } else {
      uplink = fabric_.connect(t.gw.upstream_nic(), 0, venue_.order_nic(), 0, net::LinkConfig{});
    }
    fabric_.connect(t.nic, 0, t.gw.client_nic(), 0, net::LinkConfig{});
    injector_.register_link(*uplink.a_to_b);
    injector_.register_link(*uplink.b_to_a);
    injector_.register_session(t.gw.config().name + "-uplink", [&t] { t.gw.kill_upstream(); });
    t.uplink = uplink.a_to_b;
  }

  void watch_feed() {
    feed_nic_.emplace(engine_, "feedsub", net::MacAddr::from_host_id(40), on_venue_subnet(40));
    feed_stack_.emplace(*feed_nic_);
    fabric_.connect(venue_.feed_nic(), 0, *feed_nic_, 0, net::LinkConfig{});
    // With a standby the watcher hears both boxes; only the unmuted one
    // emits, so the PITCH sequence is gapless across a handover.
    if (standby_) fabric_.connect(standby_->backup.feed_nic(), 0, *feed_nic_, 1, net::LinkConfig{});
    feed_nic_->subscribe_multicast_mac(net::multicast_mac(venue_.unit_group(0)));
    feed_stack_->bind_udp(venue_.config().feed_port,
                          [this](const net::Ipv4Header&, const net::UdpHeader&,
                                 std::span<const std::byte> payload, sim::Time) {
                            on_feed_datagram(payload);
                          });
  }

  // Observes a component's state at a scripted instant. Armed before run(),
  // a probe fires ahead of anything the run schedules for the same instant.
  void probe_at(std::int64_t us, std::function<void()> probe) {
    engine_.schedule_at(at_us(us), std::move(probe));
  }

  // --- runs ----------------------------------------------------------------
  // Background activity until `scenario.run_for`, then 10 ms of headroom so
  // in-flight datagrams, timers and any recovery cycle drain.
  void run(const Plan& plan, const DrillScenario& scenario) {
    start(plan);
    exchange::ActivityConfig activity;
    activity.events_per_second = scenario.events_per_second;
    if (scenario.burst_multiplier != 1.0) {
      activity.rate_multiplier = [scenario](sim::Time t) {
        return (t >= scenario.burst_start && t < scenario.burst_end) ? scenario.burst_multiplier
                                                                     : 1.0;
      };
    }
    exchange::MarketActivityDriver driver{venue_, std::move(activity), scenario.seed};
    const sim::Time end = sim::Time::zero() + scenario.run_for;
    driver.run_until(end);
    engine_.run_until(end + sim::millis(std::int64_t{10}));
  }

  // A scripted timeline, to the 40 ms horizon.
  void run(const Plan& plan, const std::vector<ScriptedOrder>& script) {
    start(plan);
    for (const ScriptedOrder& order : script) {
      engine_.schedule_at(at_us(order.at_us), [this, order] {
        if (order.trader == kBook) {
          venue_.book(proto::Symbol{"AAA"})
              .submit({venue_.next_order_id(), order.side,
                       proto::price_from_dollars(order.dollars), order.qty});
          return;
        }
        traders_[order.trader].strategy->send(proto::boe::NewOrder{
            order.id, order.side, order.qty, proto::Symbol{"AAA"},
            proto::price_from_dollars(order.dollars), proto::boe::TimeInForce::kDay});
      });
    }
    engine_.run_until(at_us(kScriptEndUs));
  }

  // Every built part's gauges in one registry: the byte-identity surface.
  // The venue registers as "exch", or as "prim" beside a standby's "back".
  void register_all(telemetry::Registry& registry) {
    venue_.register_metrics(registry, standby_ ? "prim" : "exch");
    if (standby_) {
      standby_->backup.register_metrics(registry, "back");
      standby_->stream.register_metrics(registry, "repl.stream");
      standby_->applier.register_metrics(registry, "repl.applier");
      standby_->controller.register_metrics(registry, "failover");
    }
    if (xsw_) xsw_->register_metrics(registry, "l2");
    if (arb_) arb_->register_metrics(registry, "arb");
    if (norm_) norm_->register_metrics(registry, "norm");
    for (const Trader& t : traders_) {
      t.gw.register_metrics(registry, t.role.empty() ? "gw" : "gw." + t.role);
    }
    injector_.register_metrics(registry, "fault");
  }

  // --- accessors -----------------------------------------------------------
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] fault::FaultInjector& injector() noexcept { return injector_; }
  [[nodiscard]] exchange::Exchange& venue() noexcept { return venue_; }
  [[nodiscard]] exchange::Exchange& backup() noexcept { return standby_->backup; }
  [[nodiscard]] exchange::ReplicaStream& stream() noexcept { return standby_->stream; }
  [[nodiscard]] exchange::ReplicaApplier& applier() noexcept { return standby_->applier; }
  [[nodiscard]] exchange::FailoverController& controller() noexcept {
    return standby_->controller;
  }
  // The replication bridge's two directions, as a link_partition target.
  [[nodiscard]] std::string bridge() const {
    return standby_->bridge.a_to_b->name() + "|" + standby_->bridge.b_to_a->name();
  }
  [[nodiscard]] l2::CommoditySwitch& xsw() noexcept { return *xsw_; }
  [[nodiscard]] trading::LineArbiter& arb() noexcept { return *arb_; }
  [[nodiscard]] trading::Normalizer& norm() noexcept { return *norm_; }
  [[nodiscard]] net::Link& a_link() noexcept { return *a_link_; }
  [[nodiscard]] const std::vector<std::vector<std::byte>>& published() const noexcept {
    return published_;
  }
  [[nodiscard]] const std::vector<std::vector<std::byte>>& forwarded() const noexcept {
    return forwarded_;
  }
  [[nodiscard]] Trader& trader(std::size_t k) noexcept { return traders_[k]; }
  [[nodiscard]] const FeedWatch& feed() const noexcept { return feed_; }

 private:
  // The standby's parts; the order-plane switch is built here so both boxes
  // and every trader can sit on it.
  struct Standby {
    exchange::Exchange backup;
    l2::CommoditySwitch osw;
    exchange::ReplicaStream stream;
    exchange::ReplicaApplier applier;
    exchange::FailoverController controller;
    net::Cable bridge;  // stream -> applier, and back

    Standby(sim::Engine& engine, exchange::Exchange& primary)
        : backup(engine, backup_config(primary.config())),
          osw(engine, "osw", switch_config()),
          stream(engine, primary, replica_config("repl-pri", 5, 6)),
          applier(engine, backup, replica_config("repl-bak", 6, 5)),
          controller(engine, backup, applier) {
      // Hot standby: feed muted (sequences advance, datagrams dropped) and
      // the order listener refuses accepts until the controller promotes it.
      backup.set_feed_muted(true);
      backup.set_accepting(false);
    }

    // The primary's config, renamed, on hosts 3 (feed) and 4 (orders).
    static exchange::ExchangeConfig backup_config(exchange::ExchangeConfig config) {
      config.name = "BACK";
      config.feed_mac = net::MacAddr::from_host_id(3);
      config.feed_ip = net::Ipv4Addr{(config.feed_ip.value() & 0xffffff00u) | 3u};
      config.order_mac = net::MacAddr::from_host_id(4);
      config.order_ip = net::Ipv4Addr{(config.order_ip.value() & 0xffffff00u) | 4u};
      return config;
    }

    // Host 5 (the stream) listens on port 36000, host 6 (the applier) on 36001.
    static exchange::ReplicaConfig replica_config(const char* name, std::uint8_t local,
                                                  std::uint8_t peer) {
      exchange::ReplicaConfig config;
      config.name = name;
      config.local_mac = net::MacAddr::from_host_id(local);
      config.local_ip = net::Ipv4Addr{10, 2, 0, local};
      config.peer_mac = net::MacAddr::from_host_id(peer);
      config.peer_ip = net::Ipv4Addr{10, 2, 0, peer};
      config.local_port = static_cast<std::uint16_t>(36000 + local - 5);
      config.peer_port = static_cast<std::uint16_t>(36000 + peer - 5);
      return config;
    }
  };

  static l2::CommoditySwitchConfig switch_config() {
    l2::CommoditySwitchConfig config;
    config.port_count = 8;
    return config;
  }

  [[nodiscard]] net::Ipv4Addr on_venue_subnet(std::uint8_t host) const {
    return net::Ipv4Addr{(venue_.config().order_ip.value() & 0xffffff00u) | host};
  }

  trading::ArbiterConfig arbiter_config() {
    trading::ArbiterConfig config;
    config.a_groups = {venue_.unit_group(0)};
    config.b_groups = {venue_.unit_group_b(0)};
    config.feed_port = venue_.config().feed_port;
    config.a_mac = net::MacAddr::from_host_id(20);
    config.a_ip = net::Ipv4Addr{10, 1, 1, 1};
    config.b_mac = net::MacAddr::from_host_id(21);
    config.b_ip = net::Ipv4Addr{10, 1, 1, 2};
    config.out_mac = net::MacAddr::from_host_id(22);
    config.out_ip = net::Ipv4Addr{10, 1, 1, 3};
    return config;
  }

  // The A/B normalizer consumes the *arbitrated* stream, plus the venue's
  // snapshot channel for dual-gap recovery.
  trading::NormalizerConfig arbitrated_normalizer_config() {
    trading::NormalizerConfig config = normalizer_config(30, net::Ipv4Addr{10, 1, 2, 1});
    config.feed_groups = {arb_->out_group(0)};
    config.feed_port = arb_->config().out_port;
    return config;
  }

  // The control normalizer consumes the A line itself.
  trading::NormalizerConfig single_line_normalizer_config() {
    trading::NormalizerConfig config = normalizer_config(40, net::Ipv4Addr{10, 1, 3, 1});
    config.feed_groups = {venue_.unit_group(0)};
    return config;
  }

  trading::NormalizerConfig normalizer_config(std::uint8_t host, net::Ipv4Addr in_ip) {
    trading::NormalizerConfig config;
    config.exchange_id = 1;
    config.snapshot_groups = {venue_.snapshot_group(0)};
    config.exchange_partitioning = std::make_shared<proto::HashPartition>(1);
    config.partitioning = std::make_shared<proto::HashPartition>(2);
    config.in_mac = net::MacAddr::from_host_id(host);
    config.in_ip = in_ip;
    config.out_mac = net::MacAddr::from_host_id(host + 1u);
    config.out_ip = net::Ipv4Addr{in_ip.value() + 1};
    return config;
  }

  // The venue snapshots for its feed consumers' recovery and heartbeats its
  // sessions, the standby follows, the consumers join, the gateways start
  // and the strategies log in; then the plan is scheduled, ahead of the load.
  void start(const Plan& plan) {
    if (norm_) venue_.start_snapshots();
    if (!traders_.empty()) venue_.start_heartbeats();
    if (standby_) {
      standby_->backup.start_heartbeats();
      standby_->stream.start();
      standby_->applier.start();
      standby_->controller.start();
    }
    if (arb_) arb_->join_feeds();
    if (norm_) norm_->join_feeds();
    for (Trader& t : traders_) t.gw.start();
    for (Trader& t : traders_) {
      t.strategy.emplace(t.stack, t.gw.client_nic().mac(), t.gw.client_nic().ip(),
                         t.gw.config().listen_port);
      t.strategy->send(proto::boe::LoginRequest{1, 1});
    }
    for (const fault::FaultEvent& event : plan) injector_.schedule(event);
  }

  void on_feed_datagram(std::span<const std::byte> payload) {
    feed_.raw.insert(feed_.raw.end(), payload.begin(), payload.end());
    if (const auto header = proto::pitch::peek_header(payload)) {
      if (feed_next_seq_ != 0 && header->sequence != feed_next_seq_) ++feed_.gaps;
      feed_next_seq_ = header->sequence + header->count;
      feed_.messages += header->count;
    }
    (void)proto::pitch::decode_batch(payload, feed_batch_);
    for (std::size_t i = 0; i < feed_batch_.count; ++i) {
      switch (feed_batch_.kind[i]) {
        case proto::pitch::DecodedKind::kAddOrder:
          ++feed_.adds;
          break;
        case proto::pitch::DecodedKind::kDeleteOrder:
          ++feed_.deletes;
          break;
        case proto::pitch::DecodedKind::kOrderExecuted:
          ++feed_.execs;
          break;
        default:
          break;
      }
    }
  }

  sim::Engine engine_;
  net::Fabric fabric_{engine_};
  fault::FaultInjector injector_{engine_};
  exchange::Exchange venue_;

  std::unique_ptr<Standby> standby_;

  std::unique_ptr<capture::Tap> tap_;
  std::unique_ptr<l2::CommoditySwitch> xsw_;
  std::unique_ptr<trading::LineArbiter> arb_;
  std::unique_ptr<trading::Normalizer> norm_;
  net::Link* a_link_ = nullptr;
  std::vector<std::vector<std::byte>> published_;
  std::vector<std::vector<std::byte>> forwarded_;

  std::deque<Trader> traders_;

  std::optional<net::Nic> feed_nic_;
  std::optional<net::NetStack> feed_stack_;
  FeedWatch feed_;
  proto::pitch::DecodedBatch feed_batch_;
  std::uint32_t feed_next_seq_ = 0;
};

// --- the drills' parts, loads and plans -------------------------------------

// A/B drills: faults on the A path (the A link, or the switch port and
// mroute feeding it) under background activity.

// The acceptance drill: a 6x burst from 60 to 120 ms of a 200 ms run, and
// the A line down for 50 ms from 70 ms, inside it.
[[nodiscard]] inline DrillScenario a_flap_during_burst() {
  DrillScenario scenario;
  scenario.seed = 41;
  scenario.run_for = sim::millis(std::int64_t{200});
  scenario.burst_start = sim::Time::zero() + sim::millis(std::int64_t{60});
  scenario.burst_end = sim::Time::zero() + sim::millis(std::int64_t{120});
  scenario.burst_multiplier = 6.0;
  return scenario;
}
[[nodiscard]] inline Plan a_flap(DrillRig& rig) {
  return flap(rig.a_link().name(), at_us(70'000), sim::millis(std::int64_t{50}));
}

// A 4x burst from 40 to 100 ms of a 150 ms run, and a heavy fade (25% peak,
// so the drill always observes drops) ramping over 30..110 ms.
[[nodiscard]] inline DrillScenario rain_fade_load() {
  DrillScenario scenario;
  scenario.seed = 43;
  scenario.run_for = sim::millis(std::int64_t{150});
  scenario.burst_start = sim::Time::zero() + sim::millis(std::int64_t{40});
  scenario.burst_end = sim::Time::zero() + sim::millis(std::int64_t{100});
  scenario.burst_multiplier = 4.0;
  return scenario;
}
[[nodiscard]] inline Plan a_rain_fade(DrillRig& rig) {
  return loss_ramp(rig.a_link().name(), at_us(30'000), sim::millis(std::int64_t{40}),
                   sim::millis(std::int64_t{40}), 0.25);
}

// 120 ms of unburst activity.
[[nodiscard]] inline DrillScenario quiet_load(std::uint64_t seed) {
  DrillScenario scenario;
  scenario.seed = seed;
  scenario.run_for = sim::millis(std::int64_t{120});
  return scenario;
}
// The A group's mroute entry evicted from the switch at 50 ms.
[[nodiscard]] inline Plan a_mroute_evict(DrillRig& rig) {
  return {{at_us(50'000), fault::FaultKind::kMrouteEvict,
           "xsw:" + rig.venue().unit_group(0).to_string(), 0.0}};
}
// The switch port feeding the A consumer stalled for 3 ms at 40 ms.
[[nodiscard]] inline Plan a_port_stall() {
  return {{at_us(40'000), fault::FaultKind::kPortStall,
           "xsw:port" + std::to_string(DrillRig::kAPort), sim::millis(std::int64_t{3}).nanos()}};
}

// Session drills: one trader and a feed watcher on the session venue,
// through session_script().
inline void add_session_parts(DrillRig& rig) {
  rig.add_trader();
  rig.watch_feed();
}
// The gateway's uplink aborted silently at 4 ms (process death).
[[nodiscard]] inline Plan uplink_kill() {
  return {{at_us(4000), fault::FaultKind::kSessionKill, "gw-uplink", 0.0}};
}
// A one-way fade toward the exchange from 4 to 10 ms: outbound orders die
// on the wire while the exchange's FIN (at the 9 ms COD sweep) still
// reaches the gateway, exercising the peer-FIN reconnect path and the
// resubmission of orders the matcher never saw.
[[nodiscard]] inline Plan uplink_flap(DrillRig& rig) {
  return flap(rig.trader(0).uplink->name(), at_us(4000), sim::millis(std::int64_t{6}));
}

// Failover drills: a hot standby, a seller and a buyer, and a feed watcher,
// through failover_script().
inline void add_failover_parts(DrillRig& rig) {
  rig.add_standby();
  rig.add_trader("sell");
  rig.add_trader("buy");
  rig.watch_feed();
}
// Whole-box death mid-burst, at 4 ms.
[[nodiscard]] inline Plan primary_crash() {
  return {{at_us(4000), fault::FaultKind::kProcessCrash, "primary", 0.0}};
}
// The replication bridge partitioned from 5 to 10 ms while the primary
// stays up: split-brain, resolved by the backup's epoch bump fencing the
// stale primary on heal. The window is deliberately order-free: orders a
// partitioned primary admits are acked but unreplicated (a documented
// limitation; see DESIGN.md).
[[nodiscard]] inline Plan partition_heal(DrillRig& rig) {
  return {{at_us(5000), fault::FaultKind::kLinkPartition, rig.bridge(), 1.0},
          {at_us(10'000), fault::FaultKind::kLinkPartition, rig.bridge(), 0.0}};
}
// The same partition, and the primary dies at 7.5 ms: inside the backup's
// promotion window.
[[nodiscard]] inline Plan crash_during_promotion(DrillRig& rig) {
  return {{at_us(5000), fault::FaultKind::kLinkPartition, rig.bridge(), 1.0},
          {at_us(7500), fault::FaultKind::kProcessCrash, "primary", 0.0},
          {at_us(10'000), fault::FaultKind::kLinkPartition, rig.bridge(), 0.0}};
}

}  // namespace tsn::drills
