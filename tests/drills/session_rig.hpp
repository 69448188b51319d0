// Order-entry session drill rig (§2, §4.2): a strategy trading through a
// gateway into an exchange with cancel-on-disconnect armed, plus a
// multicast feed consumer watching the public consequences. The rig runs a
// fixed scripted timeline of orders and counter-liquidity; drills inject an
// uplink fault mid-burst and assert the session machinery (COD, resume,
// replay, idempotent resubmission) converges to the same economic outcome
// as a never-disconnected control run.
//
// Timeline (all times on the sim clock; fault at 4ms):
//   1.0ms  order 1: sell 100 @ 100.50 (rests)
//   2.0ms  counter buy 100 @ 100.50   (fills order 1; position -100)
//   2.5ms  orders 2, 3: resting sells (200 @ 101, 300 @ 102)
//   3.6ms  order 4: sell 100 @ 103    (acked just before the fault)
//   3.8ms  order 5: sell 100 @ 104
//   4.0ms  FAULT: uplink kill (silent abort) or one-way flap
//   4.2ms  order 6: sell 100 @ 105    (mid-outage)
//   4.4ms  order 7: sell 100 @ 106    (mid-outage)
//  16.0ms  order 8: sell 120 @ 100.45 (after recovery)
//  20.0ms  counter buy 120 @ 100.45   (fills order 8; position -220)
//  40.0ms  end of drill
#pragma once

#include "sim/engine.hpp"
#include <cstdint>
#include <variant>
#include <vector>

#include "exchange/exchange.hpp"
#include "fault/injector.hpp"
#include "net/fabric.hpp"
#include "net/stack.hpp"
#include "proto/pitch.hpp"
#include "trading/gateway.hpp"

namespace tsn::drills {

enum class SessionFault {
  kNone,        // control rig: the same script with no fault
  kUplinkKill,  // gateway uplink aborted silently (process death)
  kUplinkFlap,  // gateway->exchange direction down 4ms..10ms (one-way fade)
};

inline exchange::ExchangeConfig session_drill_exchange_config() {
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

inline trading::GatewayConfig session_drill_gateway_config(exchange::Exchange& exch) {
  trading::GatewayConfig config;
  config.exchange_mac = exch.order_nic().mac();
  config.exchange_ip = exch.order_nic().ip();
  config.exchange_port = exch.config().order_port;
  config.client_mac = net::MacAddr::from_host_id(20);
  config.client_ip = net::Ipv4Addr{10, 0, 0, 20};
  config.upstream_mac = net::MacAddr::from_host_id(21);
  config.upstream_ip = net::Ipv4Addr{10, 0, 0, 21};
  config.heartbeat_interval = sim::micros(std::int64_t{1500});
  // First reconnect lands at ~12ms (8ms +/- 10% jitter after the 4ms
  // fault) — deliberately AFTER the exchange's 9ms cancel-on-disconnect
  // sweep, so re-login always resumes a dead session and replays the COD
  // cancels rather than taking over a live one.
  config.reconnect_backoff_initial = sim::millis(std::int64_t{8});
  return config;
}

class OrderEntryRig {
 public:
  explicit OrderEntryRig(SessionFault fault)
      : fault_(fault), exch_(engine_, session_drill_exchange_config()),
        gw_(engine_, session_drill_gateway_config(exch_)),
        uplink_(fabric_.connect(gw_.upstream_nic(), 0, exch_.order_nic(), 0,
                                net::LinkConfig{})) {
    fabric_.connect(strat_nic_, 0, gw_.client_nic(), 0, net::LinkConfig{});
    fabric_.connect(exch_.feed_nic(), 0, feed_nic_, 0, net::LinkConfig{});

    strat_ep_ = &strat_.connect_tcp(gw_.client_nic().mac(), gw_.client_nic().ip(),
                                    gw_.config().listen_port, 0);
    strat_ep_->set_data_handler([this](std::span<const std::byte> bytes, sim::Time) {
      strat_raw_.insert(strat_raw_.end(), bytes.begin(), bytes.end());
      strat_parser_.feed(bytes);
      while (auto decoded = strat_parser_.next()) strat_msgs_.push_back(decoded->message);
    });

    feed_nic_.subscribe_multicast_mac(net::multicast_mac(exch_.unit_group(0)));
    feed_.bind_udp(exch_.config().feed_port,
                   [this](const net::Ipv4Header&, const net::UdpHeader&,
                          std::span<const std::byte> payload, sim::Time) {
                     feed_raw_.insert(feed_raw_.end(), payload.begin(), payload.end());
                     (void)proto::pitch::decode_batch(payload, feed_batch_);
                     for (std::size_t i = 0; i < feed_batch_.count; ++i) {
                       switch (feed_batch_.kind[i]) {
                         case proto::pitch::DecodedKind::kAddOrder:
                           ++feed_adds_;
                           break;
                         case proto::pitch::DecodedKind::kDeleteOrder:
                           ++feed_deletes_;
                           break;
                         case proto::pitch::DecodedKind::kOrderExecuted:
                           ++feed_execs_;
                           break;
                         default:
                           break;
                       }
                     }
                   });

    injector_.register_link(*uplink_.a_to_b);
    injector_.register_link(*uplink_.b_to_a);
    injector_.register_session("gw-uplink", [this] { gw_.kill_upstream(); });
  }

  // Runs the full scripted drill to the 40ms horizon.
  void run() {
    exch_.start_heartbeats();
    gw_.start();
    strat_ep_->send(proto::boe::encode(proto::boe::Message{proto::boe::LoginRequest{1, 1}},
                                       strat_seq_++));

    order_at(1000, 1, 100, 100.50);
    counter_at(2000, 100, 100.50);
    order_at(2500, 2, 200, 101.0);
    order_at(2510, 3, 300, 102.0);
    order_at(3600, 4, 100, 103.0);
    order_at(3800, 5, 100, 104.0);
    switch (fault_) {
      case SessionFault::kNone:
        break;
      case SessionFault::kUplinkKill:
        injector_.kill_session_at("gw-uplink", at_us(4000));
        break;
      case SessionFault::kUplinkFlap:
        // One-way fade toward the exchange: outbound orders die on the
        // wire while the exchange's FIN (at the 9ms COD sweep) still
        // reaches the gateway, exercising the peer-FIN reconnect path and
        // the resubmission of orders the matcher never saw.
        injector_.down_at(uplink_.a_to_b->name(), at_us(4000));
        injector_.up_at(uplink_.a_to_b->name(), at_us(10000));
        break;
    }
    order_at(4200, 6, 100, 105.0);
    order_at(4400, 7, 100, 106.0);
    order_at(16000, 8, 120, 100.45);
    counter_at(20000, 120, 100.45);
    engine_.run_until(at_us(40000));
  }

  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] exchange::Exchange& exch() noexcept { return exch_; }
  [[nodiscard]] trading::Gateway& gw() noexcept { return gw_; }
  [[nodiscard]] fault::FaultInjector& injector() noexcept { return injector_; }

  [[nodiscard]] std::int64_t position() const {
    return gw_.risk().position(proto::Symbol{"AAA"});
  }
  [[nodiscard]] std::size_t book_open_orders() {
    return exch_.book(proto::Symbol{"AAA"}).open_orders();
  }

  template <typename T>
  [[nodiscard]] std::vector<T> strat_received() const {
    std::vector<T> out;
    for (const auto& msg : strat_msgs_) {
      if (const auto* typed = std::get_if<T>(&msg)) out.push_back(*typed);
    }
    return out;
  }
  [[nodiscard]] const std::vector<std::byte>& strat_raw() const noexcept { return strat_raw_; }
  [[nodiscard]] const std::vector<std::byte>& feed_raw() const noexcept { return feed_raw_; }
  [[nodiscard]] int feed_adds() const noexcept { return feed_adds_; }
  [[nodiscard]] int feed_deletes() const noexcept { return feed_deletes_; }
  [[nodiscard]] int feed_execs() const noexcept { return feed_execs_; }

 private:
  [[nodiscard]] static sim::Time at_us(std::int64_t us) {
    return sim::Time::zero() + sim::micros(us);
  }

  void order_at(std::int64_t us, proto::OrderId id, proto::Quantity qty, double dollars) {
    engine_.schedule_at(at_us(us), [this, id, qty, dollars] {
      strat_ep_->send(proto::boe::encode(
          proto::boe::Message{proto::boe::NewOrder{id, proto::Side::kSell, qty,
                                                   proto::Symbol{"AAA"},
                                                   proto::price_from_dollars(dollars),
                                                   proto::boe::TimeInForce::kDay}},
          strat_seq_++));
    });
  }

  // Aggressive counter-liquidity injected straight into the book (a market
  // participant outside the rig's session); fully crossing, so it never
  // rests and only shows on the feed as executions.
  void counter_at(std::int64_t us, proto::Quantity qty, double dollars) {
    engine_.schedule_at(at_us(us), [this, qty, dollars] {
      exch_.book(proto::Symbol{"AAA"})
          .submit({exch_.next_order_id(), proto::Side::kBuy,
                   proto::price_from_dollars(dollars), qty});
    });
  }

  SessionFault fault_;
  sim::Engine engine_;
  net::Fabric fabric_{engine_};
  exchange::Exchange exch_;
  trading::Gateway gw_;
  net::Cable uplink_;
  fault::FaultInjector injector_{engine_};

  net::Nic strat_nic_{engine_, "strat", net::MacAddr::from_host_id(30),
                      net::Ipv4Addr{10, 0, 0, 30}};
  net::NetStack strat_{strat_nic_};
  net::TcpEndpoint* strat_ep_ = nullptr;
  proto::boe::StreamParser strat_parser_;
  std::vector<proto::boe::Message> strat_msgs_;
  std::vector<std::byte> strat_raw_;
  std::uint32_t strat_seq_ = 1;

  net::Nic feed_nic_{engine_, "feedsub", net::MacAddr::from_host_id(11),
                     net::Ipv4Addr{10, 0, 0, 11}};
  net::NetStack feed_{feed_nic_};
  std::vector<std::byte> feed_raw_;
  proto::pitch::DecodedBatch feed_batch_;
  int feed_adds_ = 0;
  int feed_deletes_ = 0;
  int feed_execs_ = 0;
};

}  // namespace tsn::drills
