// Redundant A/B feed line arbitration (§4).
// tsn-lint: allow(unreached-module) the A/B drills use it; a deployment would change Design outputs
//
// Exchanges publish every feed datagram twice, on two multicast groups that
// are engineered onto disjoint physical paths. A receiver listens to both
// lines and forwards the first copy of each sequence number downstream —
// so a drop, a flapping cross-connect, or a stalled switch port on one
// path is invisible as long as the other path delivered. Only when *both*
// lines miss a sequence (a dual gap) does the receiver fall back to the
// snapshot-recovery machinery.
//
// `LineArbiter` is that receiver. It consumes the exchange's A and B
// streams on two input NICs, dedups at datagram granularity (the exchange
// emits byte-identical datagrams on both lines, so boundaries always
// agree), re-orders held-ahead datagrams, and republishes the arbitrated
// stream — original payload bytes, original sequences — on its own output
// groups, where a stock Normalizer consumes it unchanged. A dual gap is
// declared only after `gap_timeout` of waiting for the lagging line; the
// arbiter then advances past the hole, and the downstream normalizer sees
// the sequence jump and starts a resync, exactly as it would single-feed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mcast/responder.hpp"
#include "net/stack.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::trading {

enum class Line : std::uint8_t { kA = 0, kB = 1 };

struct ArbiterConfig {
  std::string name = "arb";  // tsn-lint: allow(unset-option) an identity, like every name
  // The exchange's A-line and B-line groups for the units to arbitrate.
  std::vector<net::Ipv4Addr> a_groups;
  std::vector<net::Ipv4Addr> b_groups;
  std::uint16_t feed_port = 30001;
  // Arbitrated output: unit u republishes on out_group_base + u. The port
  // defaults to the feed port so a Normalizer binds without special-casing.
  net::Ipv4Addr out_group_base{239, 103, 0, 0};  // tsn-lint: allow(unset-option) deployment address
  std::uint16_t out_port = 30001;  // tsn-lint: allow(unset-option) deployment port
  // How long to hold an ahead-of-sequence datagram waiting for the lagging
  // line before declaring the missing range a dual gap. Should comfortably
  // exceed the A/B path-latency skew; 150 us covers a metro hop.
  sim::Duration gap_timeout = sim::micros(std::int64_t{150});
  net::MacAddr a_mac;
  net::Ipv4Addr a_ip;
  net::MacAddr b_mac;
  net::Ipv4Addr b_ip;
  net::MacAddr out_mac;
  net::Ipv4Addr out_ip;
};

struct ArbiterStats {
  std::uint64_t datagrams_a = 0;
  std::uint64_t datagrams_b = 0;
  std::uint64_t forwarded = 0;   // unique datagrams sent downstream
  std::uint64_t duplicates = 0;  // second-line copies discarded
  std::uint64_t held = 0;        // arrived ahead of sequence, parked
  std::uint64_t dual_gaps = 0;   // ranges neither line delivered in time
  std::uint64_t sequences_lost = 0;  // messages skipped across dual gaps
  std::uint64_t malformed = 0;
};

class LineArbiter {
 public:
  // unit, first sequence, payload of every forwarded datagram, in forward
  // order — the hook drill harnesses use to compare against ground truth.
  using OutputTap =
      std::function<void(std::uint8_t unit, std::uint32_t sequence,
                         std::span<const std::byte> payload)>;

  LineArbiter(sim::Scheduler& engine, ArbiterConfig config);
  ~LineArbiter();
  LineArbiter(const LineArbiter&) = delete;
  LineArbiter& operator=(const LineArbiter&) = delete;

  [[nodiscard]] net::Nic& a_nic() noexcept { return *a_nic_; }
  [[nodiscard]] net::Nic& b_nic() noexcept { return *b_nic_; }
  [[nodiscard]] net::Nic& out_nic() noexcept { return *out_nic_; }

  // Joins the A groups on the A NIC and the B groups on the B NIC (IGMP
  // responders keep both memberships alive). Call after topology wiring.
  void join_feeds();

  [[nodiscard]] net::Ipv4Addr out_group(std::uint8_t unit) const noexcept {
    return net::Ipv4Addr{config_.out_group_base.value() + unit};
  }

  // The arbitration core, public so tests can feed scripted streams
  // without any network underneath.
  void on_datagram(Line line, std::span<const std::byte> payload);

  void set_output_tap(OutputTap tap) { tap_ = std::move(tap); }

  [[nodiscard]] const ArbiterStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ArbiterConfig& config() const noexcept { return config_; }

  // Registers arbitration counters as gauges under "<prefix>".
  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const;

 private:
  struct UnitState {
    bool synced = false;
    std::uint32_t next_expected = 0;  // first sequence not yet forwarded
    // Datagrams that arrived ahead of next_expected, keyed by sequence.
    std::map<std::uint32_t, std::vector<std::byte>> held;
    bool timer_armed = false;
  };

  void forward(std::uint8_t unit, std::uint32_t sequence,
               std::span<const std::byte> payload);
  // Forwards every held datagram that is now in sequence.
  void drain(std::uint8_t unit, UnitState& state);
  void arm_gap_timer(std::uint8_t unit, UnitState& state);
  void on_gap_timeout(std::uint8_t unit);

  sim::Scheduler& engine_;
  ArbiterConfig config_;
  std::unique_ptr<net::Host> host_;
  net::Nic* a_nic_ = nullptr;
  net::Nic* b_nic_ = nullptr;
  net::Nic* out_nic_ = nullptr;
  std::unique_ptr<net::NetStack> a_stack_;
  std::unique_ptr<net::NetStack> b_stack_;
  std::unique_ptr<net::NetStack> out_stack_;
  std::unique_ptr<mcast::IgmpResponder> a_responder_;
  std::unique_ptr<mcast::IgmpResponder> b_responder_;
  std::map<std::uint8_t, UnitState> units_;
  OutputTap tap_;
  ArbiterStats stats_;
};

}  // namespace tsn::trading
