// FPGA-augmented Layer-1 switch (§5, Hardware).
//
// The paper's future-work direction: reconfigurable hardware added to an
// L1S gives ~100 ns latency *with* standard IP forwarding and multicast —
// "the best of both worlds" — but with small forwarding tables. This device
// implements exactly that envelope:
//  - fixed ~100 ns pipeline latency;
//  - IP multicast with a small, strictly bounded group table — joins beyond
//    capacity are *rejected* (there is no software fallback on an FPGA).
//    Programming only the subscribed groups toward a port is the "filtering
//    and splitting feeds" capability §5 proposes, which lets merged feeds
//    stay within output bandwidth.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fabric.hpp"
#include "net/headers.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::l1s {

// Hard ceiling on multicast groups — small, as §5 warns.
inline constexpr std::size_t kFpgaGroupTableCapacity = 96;

struct FpgaSwitchConfig {
  std::size_t port_count = 32;
};

struct FpgaStats {
  std::uint64_t frames_forwarded = 0;
  // Not multicast, no programmed group, or an ingress port the switch
  // does not have.
  std::uint64_t no_group_drops = 0;
  std::uint64_t replications = 0;
};

class FpgaSwitch final : public net::PortedDevice {
 public:
  FpgaSwitch(sim::Scheduler& engine, std::string name, FpgaSwitchConfig config);

  void attach_port(net::PortId port, net::Link& egress) noexcept override;

  // Programs a multicast delivery: frames to `group` go out of `port`.
  // Returns false (and programs nothing) when the group table is full.
  [[nodiscard]] bool join_group(net::Ipv4Addr group, net::PortId port);
  [[nodiscard]] std::size_t group_count() const noexcept { return groups_.size(); }

  void receive(const net::PacketPtr& packet, net::PortId in_port) override;
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] const FpgaStats& stats() const noexcept { return stats_; }

  // Registers forwarding/filter gauges under "<prefix>.<name>".
  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const {
    const std::string base = prefix + "." + name_;
    registry.gauge(base + ".frames_forwarded",
                   [this] { return static_cast<double>(stats_.frames_forwarded); });
    registry.gauge(base + ".no_group_drops",
                   [this] { return static_cast<double>(stats_.no_group_drops); });
    registry.gauge(base + ".replications",
                   [this] { return static_cast<double>(stats_.replications); });
    registry.gauge(base + ".groups", [this] { return static_cast<double>(groups_.size()); });
  }

 private:
  sim::Scheduler& engine_;
  std::string name_;
  std::vector<net::Link*> egress_;
  std::unordered_map<net::Ipv4Addr, std::vector<net::PortId>> groups_;
  FpgaStats stats_;
};

}  // namespace tsn::l1s
