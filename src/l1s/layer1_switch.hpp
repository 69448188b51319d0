// Layer-1 switches (§4.3).
//
// An L1S is essentially a crossbar of circuits: any input port can be
// patched to any set of output ports with 5-6 ns of latency. It performs no
// packet classification, no filtering, and no multipath — it never looks at
// the bytes. Two additional capabilities the paper highlights:
//  - merging: several inputs can be patched onto one output through a mux
//    stage, at the cost of ~50 ns extra latency — and of contention, since
//    the output serializes whatever arrives (bursts on merged feeds queue or
//    drop at the egress link, §4.3's central caveat).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "sim/scheduler.hpp"
#include "sim/random.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::l1s {

// Input-to-output circuit latency (§4.3: 5-6 ns).
inline constexpr sim::Duration kL1sFanoutLatency = sim::nanos(std::int64_t{6});
// Extra latency when the output is a merge (mux) of several inputs (§4.3).
inline constexpr sim::Duration kL1sMergeLatency = sim::nanos(std::int64_t{50});

struct L1SwitchConfig {
  std::size_t port_count = 32;
};

struct L1Stats {
  std::uint64_t frames_forwarded = 0;
  std::uint64_t frames_unpatched = 0;  // arrived on a port with no circuit
  std::uint64_t merged_frames = 0;     // frames that crossed a mux stage
  std::uint64_t admin_down_drops = 0;  // fault injection: received while down
  std::uint64_t fault_loss_drops = 0;  // fault injection: loss override
};

class Layer1Switch final : public net::PortedDevice, public net::FaultHook {
 public:
  Layer1Switch(sim::Scheduler& engine, std::string name, L1SwitchConfig config);

  void attach_port(net::PortId port, net::Link& egress) noexcept override;

  // Patches a circuit from `in` to `out`. A given input may feed many
  // outputs (fan-out); a given output may be fed by many inputs (merge).
  void patch(net::PortId in, net::PortId out);
  [[nodiscard]] std::size_t circuit_count() const noexcept;

  // FaultHook: an L1S has no buffering, so admin-down simply goes dark and a
  // loss override models a degraded optical path through the crossbar.
  void set_admin_up(bool up) noexcept override { admin_up_ = up; }
  void set_loss_override(double probability) noexcept override {
    loss_override_ = probability;
  }

  void receive(const net::PacketPtr& packet, net::PortId in_port) override;
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] const L1Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const L1SwitchConfig& config() const noexcept { return config_; }

  // Registers forwarding counters as gauges under "<prefix>.<name>".
  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const {
    const std::string base = prefix + "." + name_;
    registry.gauge(base + ".frames_forwarded",
                   [this] { return static_cast<double>(stats_.frames_forwarded); });
    registry.gauge(base + ".frames_unpatched",
                   [this] { return static_cast<double>(stats_.frames_unpatched); });
    registry.gauge(base + ".merged_frames",
                   [this] { return static_cast<double>(stats_.merged_frames); });
    registry.gauge(base + ".circuits",
                   [this] { return static_cast<double>(circuit_count()); });
    registry.gauge(base + ".admin_down_drops",
                   [this] { return static_cast<double>(stats_.admin_down_drops); });
    registry.gauge(base + ".fault_loss_drops",
                   [this] { return static_cast<double>(stats_.fault_loss_drops); });
  }

 private:
  sim::Scheduler& engine_;
  std::string name_;
  L1SwitchConfig config_;
  std::vector<net::Link*> egress_;
  std::vector<std::vector<net::PortId>> patch_map_;  // in-port -> out-ports
  std::vector<std::uint32_t> feeders_;               // out-port -> #inputs patched to it
  L1Stats stats_;
  bool admin_up_ = true;
  double loss_override_ = -1.0;
  sim::Rng fault_rng_{0x11517a05};
};

}  // namespace tsn::l1s
