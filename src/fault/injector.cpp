#include "fault/injector.hpp"

#include <charconv>
#include <stdexcept>
#include <utility>

#include "net/addr.hpp"
#include "telemetry/json.hpp"

namespace tsn::fault {

namespace {

template <typename Fn>
const Fn& callback_for(const std::map<std::string, Fn>& registry, const std::string& name,
                       const char* what) {
  const auto it = registry.find(name);
  if (it == registry.end()) {
    throw std::invalid_argument{std::string{"fault target is not a "} + what + ": " + name};
  }
  return it->second;
}

}  // namespace

std::string_view fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kLinkDown:
      return "link_down";
    case FaultKind::kLinkUp:
      return "link_up";
    case FaultKind::kLossSet:
      return "loss_set";
    case FaultKind::kLossClear:
      return "loss_clear";
    case FaultKind::kPortStall:
      return "port_stall";
    case FaultKind::kMrouteEvict:
      return "mroute_evict";
    case FaultKind::kSessionKill:
      return "session_kill";
    case FaultKind::kSessionStorm:
      return "session_storm";
    case FaultKind::kProcessCrash:
      return "process_crash";
    case FaultKind::kLinkPartition:
      return "link_partition";
  }
  return "?";
}

void FaultInjector::register_link(net::Link& link) {
  hooks_.insert_or_assign(link.name(), &link);
}

void FaultInjector::register_switch(l2::CommoditySwitch& sw) {
  std::string name{sw.name()};
  hooks_.insert_or_assign(name, static_cast<net::FaultHook*>(&sw));
  switches_.insert_or_assign(std::move(name), &sw);
}

void FaultInjector::register_session(std::string name, std::function<void()> kill) {
  sessions_.insert_or_assign(std::move(name), std::move(kill));
}

void FaultInjector::register_process(std::string name, std::function<void()> crash) {
  processes_.insert_or_assign(std::move(name), std::move(crash));
}

void FaultInjector::register_storm(std::string name,
                                   std::function<std::uint32_t(std::uint32_t)> storm) {
  storms_.insert_or_assign(std::move(name), std::move(storm));
}

net::FaultHook& FaultInjector::hook_for(const std::string& target) const {
  const auto it = hooks_.find(target);
  if (it == hooks_.end()) {
    throw std::invalid_argument{"fault target not registered: " + target};
  }
  return *it->second;
}

std::pair<l2::CommoditySwitch*, std::string_view> FaultInjector::switch_port(
    const std::string& target) const {
  const std::size_t colon = target.rfind(':');
  const auto it = colon == std::string::npos ? switches_.end()
                                             : switches_.find(target.substr(0, colon));
  if (it == switches_.end()) {
    throw std::invalid_argument{"fault target is not on a switch: " + target};
  }
  return {it->second, std::string_view{target}.substr(colon + 1)};
}

FaultInjector::Action FaultInjector::resolve(const FaultEvent& event) const {
  const double value = event.value;
  switch (event.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp: {
      net::FaultHook* hook = &hook_for(event.target);
      const bool up = event.kind == FaultKind::kLinkUp;
      return [hook, up, value] {
        hook->set_admin_up(up);
        return value;
      };
    }
    case FaultKind::kLossSet:
    case FaultKind::kLossClear: {
      net::FaultHook* hook = &hook_for(event.target);
      // A negative override clears it: back to the configured loss.
      const double probability = event.kind == FaultKind::kLossSet ? value : -1.0;
      return [hook, probability, value] {
        hook->set_loss_override(probability);
        return value;
      };
    }
    case FaultKind::kPortStall: {
      const auto split = switch_port(event.target);
      l2::CommoditySwitch* sw = split.first;
      const std::string_view rest = split.second;
      net::PortId port = 0;
      const char* end = rest.data() + rest.size();
      if (!rest.starts_with("port") || rest.size() == 4 ||
          std::from_chars(rest.data() + 4, end, port).ptr != end) {
        throw std::invalid_argument{"port_stall target is not <switch>:port<N>: " +
                                    event.target};
      }
      const sim::Duration duration = sim::nanos(value);
      return [sw, port, duration, value] {
        sw->stall_port(port, duration);
        return value;
      };
    }
    case FaultKind::kMrouteEvict: {
      const auto split = switch_port(event.target);
      l2::CommoditySwitch* sw = split.first;
      const auto group = net::Ipv4Addr::parse(split.second);
      if (!group) {
        throw std::invalid_argument{"mroute_evict target is not <switch>:<a.b.c.d>: " +
                                    event.target};
      }
      return [sw, group = *group, value] {
        sw->mroutes().evict(group);
        return value;
      };
    }
    case FaultKind::kSessionKill:
    case FaultKind::kProcessCrash: {
      // Copy the callback: the entry could be re-registered before firing.
      std::function<void()> fault = event.kind == FaultKind::kSessionKill
                                        ? callback_for(sessions_, event.target, "session")
                                        : callback_for(processes_, event.target, "process");
      return [fault = std::move(fault), value] {
        fault();
        return value;
      };
    }
    case FaultKind::kSessionStorm: {
      auto storm = callback_for(storms_, event.target, "storm");
      const auto count = static_cast<std::uint32_t>(value);
      // The log records how many sessions the storm actually dropped.
      return [storm = std::move(storm), count] { return static_cast<double>(storm(count)); };
    }
    case FaultKind::kLinkPartition: {
      const std::size_t bar = event.target.find('|');
      if (bar == std::string::npos) {
        throw std::invalid_argument{"link_partition target is not <link a>|<link b>: " +
                                    event.target};
      }
      net::FaultHook* a = &hook_for(event.target.substr(0, bar));
      net::FaultHook* b = &hook_for(event.target.substr(bar + 1));
      const bool up = value == 0.0;
      return [a, b, up, value] {
        a->set_admin_up(up);
        b->set_admin_up(up);
        return value;
      };
    }
  }
  throw std::invalid_argument{"unknown fault kind"};
}

void FaultInjector::schedule(const FaultEvent& event) {
  Action fire = resolve(event);
  ++stats_.faults_scheduled;
  engine_.schedule_at(event.at, [this, kind = event.kind, target = event.target,
                                 fire = std::move(fire)] {
    const double logged = fire();
    ++stats_.faults_fired;
    ++kind_counts_[static_cast<std::size_t>(kind)];
    log_.push_back(FaultEvent{engine_.now(), kind, target, logged});
  });
}

std::string FaultInjector::log_json() const {
  telemetry::JsonWriter writer;
  writer.begin_array();
  for (const FaultEvent& event : log_) {
    writer.begin_object();
    writer.field("at_ps", event.at.picos());
    writer.field("kind", fault_kind_name(event.kind));
    writer.field("target", event.target);
    writer.field("value", event.value);
    writer.end_object();
  }
  writer.end_array();
  return writer.take();
}

void FaultInjector::register_metrics(telemetry::Registry& registry,
                                     const std::string& prefix) const {
  registry.gauge(prefix + ".scheduled",
                 [this] { return static_cast<double>(stats_.faults_scheduled); });
  registry.gauge(prefix + ".fired",
                 [this] { return static_cast<double>(stats_.faults_fired); });
  for (std::size_t k = 0; k < kFaultKindCount; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    registry.gauge(prefix + "." + std::string{fault_kind_name(kind)},
                   [this, k] { return static_cast<double>(kind_counts_[k]); });
  }
}

}  // namespace tsn::fault
