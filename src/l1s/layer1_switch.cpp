#include "l1s/layer1_switch.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/check.hpp"
#include "telemetry/trace.hpp"

namespace tsn::l1s {

Layer1Switch::Layer1Switch(sim::Scheduler& engine, std::string name, L1SwitchConfig config)
    : engine_(engine),
      name_(std::move(name)),
      egress_(config.port_count, nullptr),
      patch_map_(config.port_count),
      feeders_(config.port_count, 0) {
  TSN_ASSERT(config.port_count > 0, "a layer-1 switch needs at least one port");
}

void Layer1Switch::attach_port(net::PortId port, net::Link& egress) noexcept {
  if (port < egress_.size()) egress_[port] = &egress;
}

void Layer1Switch::patch(net::PortId in, net::PortId out) {
  if (in >= patch_map_.size() || out >= egress_.size()) {
    throw std::out_of_range{"L1S port out of range"};
  }
  auto& outs = patch_map_[in];
  if (std::find(outs.begin(), outs.end(), out) != outs.end()) return;
  outs.push_back(out);
  ++feeders_[out];
  TSN_DCHECK(feeders_[out] <= patch_map_.size(),
             "an output cannot have more feeders than there are input ports");
}

std::size_t Layer1Switch::circuit_count() const noexcept {
  std::size_t count = 0;
  for (const auto& outs : patch_map_) count += outs.size();
  return count;
}

void Layer1Switch::receive(const net::PacketPtr& packet, net::PortId in_port) {
  TSN_DCHECK(egress_.size() == patch_map_.size() && egress_.size() == feeders_.size(),
             "patch tables must stay sized to the configured port count");
  if (!admin_up_) {
    ++stats_.admin_down_drops;
    return;
  }
  if (loss_override_ > 0.0 && fault_rng_.bernoulli(loss_override_)) {
    ++stats_.fault_loss_drops;
    return;
  }
  if (in_port >= patch_map_.size() || patch_map_[in_port].empty()) {
    ++stats_.frames_unpatched;
    return;
  }
  auto self = this;
  const sim::Time rx = engine_.now();
  for (net::PortId out : patch_map_[in_port]) {
    net::Link* link = egress_[out];
    if (link == nullptr) continue;
    const bool merged = feeders_[out] > 1;
    const sim::Duration delay =
        kL1sFanoutLatency + (merged ? kL1sMergeLatency : sim::Duration::zero());
    ++stats_.frames_forwarded;
    if (merged) ++stats_.merged_frames;
    engine_.schedule_in(delay, [self, link, packet, rx, merged] {
      telemetry::record_span(packet->trace(), self->name_,
                             merged ? telemetry::SpanKind::kL1sMerge
                                    : telemetry::SpanKind::kL1sFanout,
                             rx, self->engine_.now());
      link->transmit(packet);
    });
  }
}

}  // namespace tsn::l1s
