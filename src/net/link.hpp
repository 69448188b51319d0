// Point-to-point links with serialization, propagation, queueing, and loss.
//
// A `Link` is one direction of a cable: frames handed to `transmit()` are
// serialized at the line rate (one at a time — the egress is a single
// transceiver), propagate for a fixed delay, and are delivered to the far
// device. A bounded egress queue models output buffering; when the backlog
// would exceed it, the frame is dropped (tail drop), which is how merged
// market-data feeds lose packets under bursts (§4.3).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/device.hpp"
#include "sim/scheduler.hpp"
#include "sim/random.hpp"
#include "telemetry/trace.hpp"

namespace tsn::net {

struct LinkConfig {
  // Line rate in bits per second. 0 means infinite (no serialization delay).
  std::uint64_t rate_bps = 10'000'000'000;  // 10 GbE, the paper's cross-connect speed
  // One-way propagation delay (distance / signal speed).
  sim::Duration propagation = sim::nanos(std::int64_t{50});
  // Egress buffering limit in bytes; a frame that cannot fit is dropped.
  std::size_t queue_capacity_bytes = 1 << 20;
  // Random independent frame loss (microwave rain fade etc.). 0 = lossless.
  double loss_probability = 0.0;
  // Telemetry span kind recorded per delivery: kLink for in-building cables,
  // kWan for metro/long-haul segments (set by wan_link_config).
  telemetry::SpanKind span_kind = telemetry::SpanKind::kLink;
};

struct LinkStats {
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped_queue = 0;
  std::uint64_t frames_dropped_loss = 0;
  std::uint64_t frames_dropped_down = 0;  // handed over while admin-down
  std::uint64_t bytes_delivered = 0;
  sim::Duration max_queue_delay = sim::Duration::zero();
};

class Link : public FaultHook {
 public:
  Link(sim::Scheduler& engine, std::string name, LinkConfig config);

  // Attaches the receiving end. Must be called before transmit().
  void connect_to(Device& destination, PortId destination_port) noexcept;

  // Frame-level delivery override for links whose far end lives on another
  // simulation shard: instead of scheduling `Device::receive` locally, the
  // link hands (arrival time, frame) to this hook, which is expected to
  // `post_to` the destination domain (see net/bridge.hpp). The hook runs
  // after loss/queueing/serialization — everything up to the wire is still
  // modeled on the sending shard.
  using RemoteDelivery = std::function<void(sim::Time arrival, const PacketPtr& packet)>;
  void set_remote_delivery(RemoteDelivery deliver) { remote_delivery_ = std::move(deliver); }

  // Hands one frame to the egress. Never blocks; drops on overflow. The far
  // device's receive() runs at arrival, unless it schedules its own
  // delivery (Device::schedule_receive).
  void transmit(const PacketPtr& packet);

  // Queueing delay a frame handed over right now would experience.
  [[nodiscard]] sim::Duration current_backlog() const noexcept;

  [[nodiscard]] const LinkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }

  // Serialization time for a frame of `wire_bytes` at this link's rate.
  [[nodiscard]] sim::Duration serialization_delay(std::size_t wire_bytes) const noexcept;

  // FaultHook: admin state and dynamic loss override (failure drills).
  void set_admin_up(bool up) noexcept override { admin_up_ = up; }
  [[nodiscard]] bool admin_up() const noexcept { return admin_up_; }
  void set_loss_override(double probability) noexcept override {
    loss_override_ = probability;
  }
  [[nodiscard]] double loss_override() const noexcept { return loss_override_; }
  // The loss probability currently in force (override beats config).
  [[nodiscard]] double effective_loss() const noexcept {
    return loss_override_ >= 0.0 ? loss_override_ : config_.loss_probability;
  }

 private:
  sim::Scheduler& engine_;
  std::string name_;
  LinkConfig config_;
  Device* destination_ = nullptr;
  PortId destination_port_ = 0;
  RemoteDelivery remote_delivery_;
  sim::Time egress_free_at_ = sim::Time::zero();
  LinkStats stats_;
  sim::Rng rng_{0xd1cefa11};  // the link's own stream of loss draws
  bool admin_up_ = true;
  double loss_override_ = -1.0;  // negative: use config_.loss_probability
};

// A full-duplex cable: two links, one per direction.
struct Cable {
  Link* a_to_b = nullptr;
  Link* b_to_a = nullptr;
};

}  // namespace tsn::net
