// The switch-resident multicast route ("mroute") table.
//
// The paper (§3, Multicast Trends) describes the central pain point this
// module models: switch ASICs hold mroute state in dedicated, fixed-size
// memory; when the table overflows, the switch falls back to software
// forwarding, "which cripples performance and induces heavy packet loss."
// `MrouteTable` therefore tracks, per group, whether the entry fit in the
// hardware table; the switch charges a much larger forwarding latency (and
// a loss probability) to groups relegated to the software path.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/addr.hpp"
#include "net/device.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::mcast {

struct MrouteStats {
  std::uint64_t hardware_hits = 0;
  std::uint64_t software_hits = 0;
  std::uint64_t misses = 0;      // lookups for groups with no receivers
  std::uint64_t evictions = 0;   // entries removed by fault injection
};

class MrouteTable {
 public:
  // `hardware_capacity` is the number of groups the ASIC table can hold.
  explicit MrouteTable(std::size_t hardware_capacity) noexcept
      : hardware_capacity_(hardware_capacity) {}

  // Adds `port` to the group's egress set, creating the entry if needed.
  // New entries take a hardware slot if one is free, else live in software.
  void join(net::Ipv4Addr group, net::PortId port);

  // Removes `port`; the entry disappears with its last port. Freed hardware
  // slots are re-used by the next new entry (no automatic promotion —
  // matching observed ASIC behaviour where software entries stay slow).
  void leave(net::Ipv4Addr group, net::PortId port);

  struct Lookup {
    const std::vector<net::PortId>* ports = nullptr;  // nullptr if no entry
    bool hardware = false;
  };

  // Looks up egress ports, recording hit statistics.
  [[nodiscard]] Lookup lookup(net::Ipv4Addr group);

  [[nodiscard]] std::size_t group_count() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t hardware_group_count() const noexcept { return hardware_used_; }
  [[nodiscard]] std::size_t software_group_count() const noexcept {
    return entries_.size() - hardware_used_;
  }
  [[nodiscard]] bool overflowed() const noexcept { return entries_.size() > hardware_used_; }
  [[nodiscard]] const MrouteStats& stats() const noexcept { return stats_; }

  // Fault injection: drops the group's entry outright — table corruption or
  // exhaustion-driven reprogramming silently black-holing subscribers (§3).
  // The group stays dark until a fresh IGMP report re-installs it. Returns
  // false when the group had no entry.
  bool evict(net::Ipv4Addr group);

  // Exposes table occupancy and hit counters as gauges under `prefix`.
  // Lookup itself stays uninstrumented — it sits on the X1 hot path; the
  // hw/sw split is observable from these counters instead.
  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const {
    registry.gauge(prefix + ".groups", [this] { return static_cast<double>(group_count()); });
    registry.gauge(prefix + ".hardware_groups",
                   [this] { return static_cast<double>(hardware_group_count()); });
    registry.gauge(prefix + ".software_groups",
                   [this] { return static_cast<double>(software_group_count()); });
    registry.gauge(prefix + ".hardware_hits",
                   [this] { return static_cast<double>(stats_.hardware_hits); });
    registry.gauge(prefix + ".software_hits",
                   [this] { return static_cast<double>(stats_.software_hits); });
    registry.gauge(prefix + ".misses", [this] { return static_cast<double>(stats_.misses); });
    registry.gauge(prefix + ".evictions",
                   [this] { return static_cast<double>(stats_.evictions); });
  }

 private:
  struct Entry {
    std::vector<net::PortId> ports;
    bool hardware = false;
  };

  std::size_t hardware_capacity_;
  std::size_t hardware_used_ = 0;
  std::unordered_map<net::Ipv4Addr, Entry> entries_;
  MrouteStats stats_;
};

}  // namespace tsn::mcast
