// NICs and hosts.
//
// A `Nic` is the Device endpoint a server exposes on the network. A `Host`
// owns one or more NICs (the paper's servers use separate NICs for
// management, market data, and orders — Figure 1(d)) and models the
// software hop: a configurable delay between a frame arriving at the NIC
// and the application handler running (kernel-bypass stacks put this below
// one microsecond, §3).
//
// A frame reaches software in one event. Over a local link with a software
// hop, the NIC schedules that event itself, at arrival + rx delay, in place
// of the link's delivery at arrival (Device::schedule_receive); receive()
// keeps two events for callers without a link, such as bridged cross-shard
// deliveries. Either way the MAC filter and the rx counters run when
// software sees the frame, not at arrival: a multicast subscribe or
// unsubscribe inside that window decides the frame's fate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/addr.hpp"
#include "net/device.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"

namespace tsn::net {

class Nic final : public PortedDevice {
 public:
  // Handler invoked when a frame is delivered to software (after the host's
  // software latency, if the NIC belongs to a host), with the frame's
  // arrival time at the NIC.
  using RxHandler = std::function<void(const PacketPtr&, sim::Time arrival)>;

  Nic(sim::Scheduler& engine, std::string name, MacAddr mac, Ipv4Addr ip);

  void attach_port(PortId port, Link& egress) noexcept override;
  // Installed once at set-up (in src/, only by NetStack's constructor), so
  // the handler a frame reaches is the one installed when it arrived.
  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }
  // Extra delay between NIC arrival and the handler running (software hop).
  void set_rx_delay(sim::Duration delay) noexcept { rx_delay_ = delay; }
  // If true (default), frames whose destination MAC is neither this NIC's
  // unicast address, broadcast, nor a subscribed multicast MAC are dropped,
  // like a real NIC's hardware filter.
  void set_promiscuous(bool on) noexcept { promiscuous_ = on; }
  void subscribe_multicast_mac(MacAddr mac);
  void unsubscribe_multicast_mac(MacAddr mac);

  // Transmits a pre-built frame.
  void send(const PacketPtr& packet);
  // Convenience: wraps bytes in a Packet stamped with the current time.
  PacketPtr send_frame(std::vector<std::byte> frame);
  // Allocation-free variant for hot senders: the bytes are copied into the
  // pooled Packet (inline for small frames), so the caller can reuse its
  // scratch buffer across sends.
  PacketPtr send_frame(std::span<const std::byte> frame);
  // Pooled packet source for this NIC (pre-warm or inspect reuse counters).
  [[nodiscard]] PacketFactory& packets() noexcept { return factory_; }

  void receive(const PacketPtr& packet, PortId port) override;
  // With a software hop, schedules the one event that delivers the frame
  // to software at arrival + rx delay; without one, declines. receive()
  // calls it with arrival = now, and delivers at once when it declines.
  bool schedule_receive(const PacketPtr& packet, PortId port, sim::Time arrival,
                        sim::DomainId link_domain) override;
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }

  [[nodiscard]] MacAddr mac() const noexcept { return mac_; }
  [[nodiscard]] Ipv4Addr ip() const noexcept { return ip_; }
  [[nodiscard]] std::uint64_t rx_frames() const noexcept { return rx_frames_; }
  [[nodiscard]] std::uint64_t tx_frames() const noexcept { return tx_frames_; }
  [[nodiscard]] std::uint64_t rx_filtered() const noexcept { return rx_filtered_; }
  [[nodiscard]] sim::Scheduler& engine() noexcept { return engine_; }

 private:
  // The frame reaching software: MAC filter, counters, the kNicRx span over
  // [arrival, arrival + rx delay], then the handler.
  void deliver(const PacketPtr& packet, sim::Time arrival);

  sim::Scheduler& engine_;
  std::string name_;
  MacAddr mac_;
  Ipv4Addr ip_;
  Link* egress_ = nullptr;
  RxHandler rx_handler_;
  sim::Duration rx_delay_ = sim::Duration::zero();
  bool promiscuous_ = false;
  std::vector<MacAddr> mcast_macs_;
  PacketFactory factory_;
  std::uint64_t rx_frames_ = 0;
  std::uint64_t tx_frames_ = 0;
  std::uint64_t rx_filtered_ = 0;
};

// A bare-metal server with one or more NICs and a modelled application
// processing latency.
class Host {
 public:
  Host(sim::Scheduler& engine, std::string name, sim::Duration software_latency);

  // Adds a NIC; rx frames reach handlers software_latency after arrival.
  Nic& add_nic(std::string suffix, MacAddr mac, Ipv4Addr ip);

  [[nodiscard]] Nic& nic(std::size_t index) { return *nics_.at(index); }
  [[nodiscard]] const Nic& nic(std::size_t index) const { return *nics_.at(index); }
  [[nodiscard]] std::size_t nic_count() const noexcept { return nics_.size(); }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] sim::Duration software_latency() const noexcept { return software_latency_; }
  [[nodiscard]] sim::Scheduler& engine() noexcept { return engine_; }

 private:
  sim::Scheduler& engine_;
  std::string name_;
  sim::Duration software_latency_;
  std::vector<std::unique_ptr<Nic>> nics_;
};

}  // namespace tsn::net
