// FPGA-augmented Layer-1 switch (§5, Hardware).
//
// The paper's future-work direction: reconfigurable hardware added to an
// L1S gives ~100 ns latency *with* standard IP forwarding and multicast —
// "the best of both worlds" — but with small forwarding tables. This device
// implements exactly that envelope:
//  - fixed ~100 ns pipeline latency;
//  - IP multicast with a small, strictly bounded group table — joins beyond
//    capacity are *rejected* (there is no software fallback on an FPGA);
//  - per-port ingress filtering on multicast group ranges, the "filtering
//    and splitting feeds" capability §5 proposes, which lets merged feeds
//    stay within output bandwidth.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fabric.hpp"
#include "net/headers.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::l1s {

struct FpgaSwitchConfig {
  std::size_t port_count = 32;
  // Hard ceiling on multicast groups — small, as §5 warns.
  std::size_t group_table_capacity = 96;
};

struct FpgaStats {
  std::uint64_t frames_forwarded = 0;
  std::uint64_t frames_filtered = 0;
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
  void leave_group(net::Ipv4Addr group, net::PortId port);
  [[nodiscard]] std::size_t group_count() const noexcept { return groups_.size(); }

  // Ingress filter: only multicast groups within [first, last] are accepted
  // on `port`; everything else is dropped at line rate. Multiple ranges may
  // be added; no ranges means accept-all.
  void add_ingress_filter(net::PortId port, net::Ipv4Addr first, net::Ipv4Addr last);
  void clear_ingress_filters(net::PortId port);

  void receive(const net::PacketPtr& packet, net::PortId in_port) override;
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] const FpgaStats& stats() const noexcept { return stats_; }

  // Registers forwarding/filter gauges under "<prefix>.<name>".
  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const {
    const std::string base = prefix + "." + name_;
    registry.gauge(base + ".frames_forwarded",
                   [this] { return static_cast<double>(stats_.frames_forwarded); });
    registry.gauge(base + ".frames_filtered",
                   [this] { return static_cast<double>(stats_.frames_filtered); });
    registry.gauge(base + ".no_group_drops",
                   [this] { return static_cast<double>(stats_.no_group_drops); });
    registry.gauge(base + ".replications",
                   [this] { return static_cast<double>(stats_.replications); });
    registry.gauge(base + ".groups", [this] { return static_cast<double>(groups_.size()); });
  }

 private:
  struct Range {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
  };

  [[nodiscard]] bool passes_filter(net::PortId port, net::Ipv4Addr group) const noexcept;

  sim::Scheduler& engine_;
  std::string name_;
  FpgaSwitchConfig config_;
  std::vector<net::Link*> egress_;
  std::unordered_map<net::Ipv4Addr, std::vector<net::PortId>> groups_;
  std::vector<std::vector<Range>> ingress_filters_;
  FpgaStats stats_;
};

}  // namespace tsn::l1s
