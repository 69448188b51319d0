// Host-side multicast membership helper: programs the NIC's hardware MAC
// filter and announces the join in-band via IGMP so snooping switches
// program their mroute tables.
#pragma once

#include "mcast/igmp.hpp"
#include "net/nic.hpp"

namespace tsn::mcast {

inline void join_group(net::Nic& nic, net::Ipv4Addr group) {
  nic.subscribe_multicast_mac(net::multicast_mac(group));
  nic.send_frame(build_igmp_frame(nic.mac(), nic.ip(),
                                  IgmpMessage{IgmpType::kMembershipReport, group}));
}

}  // namespace tsn::mcast
