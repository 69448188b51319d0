// Fabric: owns the links (and cables) of a simulated network and provides
// the wiring helpers topology builders use.
#pragma once

#include <deque>
#include <string>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::net {

class Fabric {
 public:
  explicit Fabric(sim::Scheduler& engine) noexcept : engine_(engine) {}
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Creates a unidirectional link delivering into (device, port).
  Link& make_link(std::string name, const LinkConfig& config, Device& destination,
                  PortId destination_port) {
    auto& link = links_.emplace_back(engine_, std::move(name), config);
    link.connect_to(destination, destination_port);
    return link;
  }

  // Creates a unidirectional link with no local destination: its far end
  // lives on another simulation shard, and the caller attaches the
  // cross-shard delivery hook via net/bridge.hpp.
  Link& make_remote_link(std::string name, const LinkConfig& config) {
    return links_.emplace_back(engine_, std::move(name), config);
  }

  // Wires a full-duplex cable between two ported devices: both directions
  // share one LinkConfig. Each device learns its egress via attach_port.
  Cable connect(PortedDevice& a, PortId port_a, PortedDevice& b, PortId port_b,
                const LinkConfig& config) {
    Link& ab = make_link(std::string{a.name()} + "->" + std::string{b.name()}, config, b, port_b);
    Link& ba = make_link(std::string{b.name()} + "->" + std::string{a.name()}, config, a, port_a);
    a.attach_port(port_a, ab);
    b.attach_port(port_b, ba);
    return Cable{&ab, &ba};
  }

  [[nodiscard]] sim::Scheduler& engine() noexcept { return engine_; }
  [[nodiscard]] PacketFactory& packets() noexcept { return packets_; }

  // Aggregate drop counters across every link in the fabric.
  [[nodiscard]] LinkStats total_stats() const noexcept {
    LinkStats total;
    for (const auto& link : links_) {
      total.frames_delivered += link.stats().frames_delivered;
      total.frames_dropped_queue += link.stats().frames_dropped_queue;
      total.frames_dropped_loss += link.stats().frames_dropped_loss;
      total.bytes_delivered += link.stats().bytes_delivered;
      if (link.stats().max_queue_delay > total.max_queue_delay) {
        total.max_queue_delay = link.stats().max_queue_delay;
      }
    }
    return total;
  }

  // Exposes aggregate link accounting as gauges (sampled at snapshot time),
  // so any deployment can export fabric health without per-link plumbing.
  void register_metrics(telemetry::Registry& registry,
                        const std::string& prefix = "fabric") const {
    registry.gauge(prefix + ".links", [this] { return static_cast<double>(links_.size()); });
    registry.gauge(prefix + ".frames_delivered",
                   [this] { return static_cast<double>(total_stats().frames_delivered); });
    registry.gauge(prefix + ".frames_dropped_queue",
                   [this] { return static_cast<double>(total_stats().frames_dropped_queue); });
    registry.gauge(prefix + ".frames_dropped_loss",
                   [this] { return static_cast<double>(total_stats().frames_dropped_loss); });
    registry.gauge(prefix + ".bytes_delivered",
                   [this] { return static_cast<double>(total_stats().bytes_delivered); });
    registry.gauge(prefix + ".max_queue_delay_ns",
                   [this] { return total_stats().max_queue_delay.nanos(); });
  }

 private:
  sim::Scheduler& engine_;
  PacketFactory packets_;
  std::deque<Link> links_;  // deque: stable addresses as links are added
};

}  // namespace tsn::net
