// The commodity data-center switch model (Design 1's building block, §4.1).
//
// Behaviour modelled:
//  - Cut-through forwarding with a fixed pipeline latency (~500 ns for
//    current-generation devices, §3 Latency Trends). Serialization is
//    charged by the egress Link, so "switch hop latency" in the paper's
//    arithmetic corresponds to `kSwitchForwardingLatency` here.
//  - L3 unicast via longest-prefix-match routes with ECMP across equal-cost
//    egress ports (leaf-spine runs a standard Layer-3 protocol, §4.1); the
//    route table is programmed by the topology builder, standing in for BGP.
//  - IP multicast via an mroute table with bounded hardware capacity.
//    Groups that overflow the ASIC table are forwarded on a software path:
//    a single-server queue with a much larger per-packet service time and a
//    bounded queue whose overflow drops frames — "cripples performance and
//    induces heavy packet loss" (§3 Multicast Trends).
//  - IGMPv2 snooping to learn receiver ports, with report propagation
//    toward configured router (uplink) ports.
//  - Last-hop MAC rewrite for routed unicast so host NIC filters behave.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcast/igmp.hpp"
#include "mcast/mroute.hpp"
#include "net/fabric.hpp"
#include "net/headers.hpp"
#include "sim/scheduler.hpp"
#include "sim/random.hpp"

namespace tsn::l2 {

// Pipeline latency of the hardware forwarding path (§3: ~500 ns).
inline constexpr sim::Duration kSwitchForwardingLatency = sim::nanos(std::int64_t{500});
// Software (CPU) forwarding path, used when the mroute table overflows:
// per-packet service time and bounded queue.
inline constexpr sim::Duration kSoftwareServiceTime = sim::micros(std::int64_t{40});
inline constexpr std::size_t kSoftwareQueuePackets = 256;

struct CommoditySwitchConfig {
  std::size_t port_count = 48;
  // ASIC mroute table size (groups).
  std::size_t mroute_hardware_capacity = 512;
  // Querier + membership aging (both disabled when zero). With a querier
  // running, receiver ports that stop answering queries are aged out of
  // the mroute table after `membership_timeout` — how real snooping state
  // behaves. Enable via start_querier().
  // tsn-lint: allow(unset-option) IgmpAging tests: silent ports age out, answered ones stay
  sim::Duration igmp_query_interval = sim::Duration::zero();
  // tsn-lint: allow(unset-option) IgmpAging tests: silent ports age out, answered ones stay
  sim::Duration membership_timeout = sim::Duration::zero();
};

struct SwitchStats {
  std::uint64_t unicast_forwarded = 0;
  std::uint64_t multicast_hw_forwarded = 0;
  std::uint64_t multicast_sw_forwarded = 0;
  std::uint64_t software_queue_drops = 0;
  std::uint64_t no_route_drops = 0;
  std::uint64_t no_group_drops = 0;
  std::uint64_t igmp_processed = 0;
  std::uint64_t replications = 0;  // egress copies made for multicast
  // Fault-injection accounting.
  std::uint64_t admin_down_drops = 0;    // received while the switch was down
  std::uint64_t fault_loss_drops = 0;    // dropped by an injected loss override
  std::uint64_t frames_stalled = 0;      // delayed by a stalled egress port
};

class CommoditySwitch final : public net::PortedDevice, public net::FaultHook {
 public:
  CommoditySwitch(sim::Scheduler& engine, std::string name, CommoditySwitchConfig config);

  // --- wiring -------------------------------------------------------------
  void attach_port(net::PortId port, net::Link& egress) noexcept override;
  // Marks a port as facing another switch/router: IGMP reports are relayed
  // out of these ports so upstream mroute tables learn the subtree.
  void set_router_port(net::PortId port, bool is_router = true);

  // --- control plane (programmed by the topology builder / "BGP") ---------
  // Adds a route for prefix/len; multiple calls with the same prefix add
  // ECMP next-hop ports.
  void add_route(net::Ipv4Addr prefix, std::uint8_t prefix_len, net::PortId port);
  // Binds a directly-attached host: installs a /32 route and enables
  // last-hop destination-MAC rewrite.
  void bind_host(net::Ipv4Addr ip, net::MacAddr mac, net::PortId port);
  // Programs a static multicast route (alternative to IGMP snooping).
  void join_group(net::Ipv4Addr group, net::PortId port);
  // Starts periodic General Queries and membership aging (requires both
  // intervals in the config to be positive). Runs until the engine stops.
  // No deployment starts one: that would change the Design outputs.
  // tsn-lint: allow(unreached-member) IgmpAging tests: silent ports age out, answered ones stay
  void start_querier();

  // --- fault injection ------------------------------------------------------
  // FaultHook: while admin-down every received frame is dropped (a powered-
  // off or rebooting switch); a loss override randomly discards received
  // frames (ASIC parity errors, overheating optics).
  void set_admin_up(bool up) noexcept override { admin_up_ = up; }
  void set_loss_override(double probability) noexcept override {
    loss_override_ = probability;
  }
  // Pauses one egress port: frames bound for it during the stall window are
  // held and released, in order, when the stall ends — head-of-line blocking
  // from a PFC storm or a draining linecard buffer.
  void stall_port(net::PortId port, sim::Duration duration);
  [[nodiscard]] bool port_stalled(net::PortId port) const noexcept;

  // --- data plane ----------------------------------------------------------
  void receive(const net::PacketPtr& packet, net::PortId in_port) override;

  [[nodiscard]] std::string_view name() const noexcept override { return name_; }
  [[nodiscard]] const SwitchStats& stats() const noexcept { return stats_; }
  // Registers forwarding/drop counters and mroute occupancy as telemetry
  // gauges under "<prefix>.<switch name>".
  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const;
  [[nodiscard]] std::uint64_t memberships_aged_out() const noexcept { return aged_out_; }
  [[nodiscard]] const mcast::MrouteTable& mroutes() const noexcept { return mroutes_; }
  [[nodiscard]] mcast::MrouteTable& mroutes() noexcept { return mroutes_; }
  [[nodiscard]] const CommoditySwitchConfig& config() const noexcept { return config_; }

 private:
  struct Route {
    std::uint32_t prefix = 0;
    std::uint8_t len = 0;
    std::vector<net::PortId> ports;  // ECMP set
  };

  void forward_unicast(const net::PacketPtr& packet, const net::DecodedFrame& frame,
                       net::PortId in_port);
  void forward_multicast(const net::PacketPtr& packet, net::Ipv4Addr group, net::PortId in_port);
  // Copies `egress_scratch_` minus `in_port` into a pending fan-out and
  // schedules the one event that transmits on all of them.
  void replicate(const net::PacketPtr& packet, net::PortId in_port, sim::Duration extra_delay);
  void fire_fanout(const net::PacketPtr& packet, std::uint32_t fanout, sim::Time rx);
  void handle_igmp(const net::PacketPtr& packet, const mcast::IgmpMessage& message,
                   net::PortId in_port);
  void transmit_on(net::PortId port, const net::PacketPtr& packet);
  [[nodiscard]] const Route* lookup_route(net::Ipv4Addr dst) const noexcept;
  [[nodiscard]] static std::uint64_t flow_hash(const net::DecodedFrame& frame) noexcept;

  sim::Scheduler& engine_;
  std::string name_;
  CommoditySwitchConfig config_;
  std::vector<net::Link*> egress_;  // per port, may be null (unused port)
  std::vector<bool> router_port_;
  std::vector<Route> routes_;  // sorted by descending prefix length
  std::unordered_map<net::Ipv4Addr, net::MacAddr> host_macs_;
  mcast::MrouteTable mroutes_;
  SwitchStats stats_;
  // Software forwarding path state (single server queue).
  sim::Time software_free_at_ = sim::Time::zero();
  // Fault-injection state.
  bool admin_up_ = true;
  double loss_override_ = -1.0;  // negative: no injected ingress loss
  sim::Rng fault_rng_{0xfa017a57};
  std::vector<sim::Time> port_stalled_until_;  // lazily sized to port_count
  // Querier / aging state.
  void querier_tick();
  struct MembershipKey {
    std::uint32_t group = 0;
    net::PortId port = 0;
    bool operator==(const MembershipKey&) const = default;
  };
  struct MembershipKeyHash {
    std::size_t operator()(const MembershipKey& k) const noexcept {
      return std::hash<std::uint64_t>{}((std::uint64_t{k.group} << 32) | k.port);
    }
  };
  std::unordered_map<MembershipKey, sim::Time, MembershipKeyHash> last_report_;
  // Pooled source for frames this switch originates (IGMP queries) or
  // rewrites (last-hop MAC); the scratch buffer keeps rewrites
  // allocation-free for pool-inlined frame sizes.
  net::PacketFactory factory_;
  std::vector<std::byte> rewrite_scratch_;
  // Multicast egress ports of the frame being received, in forwarding order.
  std::vector<net::PortId> egress_scratch_;
  // Egress lists of fan-outs whose event has not fired yet, and the indices
  // of released ones. Released lists keep their capacity, so a warm fan-out
  // allocates nothing.
  std::vector<std::vector<net::PortId>> fanouts_;
  std::vector<std::uint32_t> free_fanouts_;
  bool querier_running_ = false;
  std::uint64_t aged_out_ = 0;
};

}  // namespace tsn::l2
