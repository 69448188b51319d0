// Passive network taps and capture appliances (§2).
//
// Trading firms record traffic with precise timestamps for monitoring and
// research: computing a strategy's latency means subtracting the time its
// most recent input arrived from the time its order left, and research
// needs event ordering at sub-100-picosecond precision. A `Tap` sits
// inline on a cable, forwards frames both ways with no added latency (an
// optical splitter), and stamps every frame with its capture clock — which
// has realistic offset, drift, and jitter, so clock-quality requirements
// can be studied rather than assumed away.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "sim/scheduler.hpp"
#include "sim/random.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::capture {

// A capture clock: measured = true + offset + drift * elapsed + jitter.
class CaptureClock {
 public:
  CaptureClock() = default;
  CaptureClock(sim::Duration offset, double drift_ppb, sim::Duration jitter_rms,
               std::uint64_t seed)
      : offset_(offset), drift_ppb_(drift_ppb), jitter_rms_(jitter_rms), rng_(seed) {}

  [[nodiscard]] sim::Time stamp(sim::Time true_time) noexcept {
    const double elapsed_s = true_time.seconds();
    const double drift_ps = drift_ppb_ * 1e-9 * elapsed_s * 1e12;
    const double jitter_ps = rng_.normal(0.0, static_cast<double>(jitter_rms_.picos()));
    return true_time + offset_ +
           sim::Duration{static_cast<std::int64_t>(drift_ps + jitter_ps)};
  }

 private:
  sim::Duration offset_ = sim::Duration::zero();
  double drift_ppb_ = 0.0;
  sim::Duration jitter_rms_ = sim::Duration::zero();
  sim::Rng rng_{0x7a95};
};

struct CaptureRecord {
  std::uint64_t packet_id = 0;
  std::uint32_t frame_bytes = 0;
  net::PortId port = 0;        // which side of the tap saw it
  sim::Time true_time;         // simulation truth
  sim::Time stamped_time;      // what the capture clock recorded
};

class Tap final : public net::PortedDevice {
 public:
  // Optional hook receiving every tapped packet (e.g. a FrameRecorder).
  using PacketHook = std::function<void(const net::PacketPtr&, net::PortId, sim::Time)>;

  Tap(sim::Scheduler& engine, std::string name, CaptureClock clock = {});

  void attach_port(net::PortId port, net::Link& egress) noexcept override;
  void receive(const net::PacketPtr& packet, net::PortId port) override;
  [[nodiscard]] std::string_view name() const noexcept override { return name_; }

  void set_packet_hook(PacketHook hook) { packet_hook_ = std::move(hook); }

  [[nodiscard]] const std::vector<CaptureRecord>& records() const noexcept { return records_; }
  void clear() noexcept { records_.clear(); }

  // Registers capture-volume gauges under "<prefix>".
  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const {
    registry.gauge(prefix + ".records",
                   [this] { return static_cast<double>(records_.size()); });
    registry.gauge(prefix + ".frames_tapped",
                   [this] { return static_cast<double>(frames_tapped_); });
    registry.gauge(prefix + ".bytes_tapped",
                   [this] { return static_cast<double>(bytes_tapped_); });
  }

 private:
  sim::Scheduler& engine_;
  std::string name_;
  CaptureClock clock_;
  net::Link* egress_[2] = {nullptr, nullptr};
  PacketHook packet_hook_;
  std::vector<CaptureRecord> records_;
  // Totals survive record eviction/clear, so gauges stay monotonic.
  std::uint64_t frames_tapped_ = 0;
  std::uint64_t bytes_tapped_ = 0;
};

}  // namespace tsn::capture
