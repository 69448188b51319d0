#include "mcast/mroute.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace tsn::mcast {

void MrouteTable::join(net::Ipv4Addr group, net::PortId port) {
  auto [it, inserted] = entries_.try_emplace(group);
  Entry& entry = it->second;
  if (inserted) {
    entry.hardware = hardware_used_ < hardware_capacity_;
    if (entry.hardware) ++hardware_used_;
  }
  if (std::find(entry.ports.begin(), entry.ports.end(), port) == entry.ports.end()) {
    entry.ports.push_back(port);
  }
  TSN_DCHECK(hardware_used_ <= hardware_capacity_,
             "hardware slot accounting cannot exceed capacity");
}

void MrouteTable::leave(net::Ipv4Addr group, net::PortId port) {
  auto it = entries_.find(group);
  if (it == entries_.end()) return;
  std::erase(it->second.ports, port);
  if (it->second.ports.empty()) {
    TSN_DCHECK(!it->second.hardware || hardware_used_ > 0,
               "releasing a hardware entry requires a slot to be in use");
    if (it->second.hardware && hardware_used_ > 0) --hardware_used_;
    entries_.erase(it);
  }
}

MrouteTable::Lookup MrouteTable::lookup(net::Ipv4Addr group) {
  auto it = entries_.find(group);
  if (it == entries_.end()) {
    ++stats_.misses;
    return {};
  }
  if (it->second.hardware) {
    ++stats_.hardware_hits;
  } else {
    ++stats_.software_hits;
  }
  return Lookup{&it->second.ports, it->second.hardware};
}

bool MrouteTable::evict(net::Ipv4Addr group) {
  auto it = entries_.find(group);
  if (it == entries_.end()) return false;
  TSN_DCHECK(!it->second.hardware || hardware_used_ > 0,
             "evicting a hardware entry requires a slot to be in use");
  if (it->second.hardware && hardware_used_ > 0) --hardware_used_;
  entries_.erase(it);
  ++stats_.evictions;
  return true;
}

}  // namespace tsn::mcast
