// Host-side IGMP membership maintenance.
//
// One-shot joins (mcast/subscribe.hpp) are enough when switches never
// forget, but real snooping switches age entries out unless a querier
// periodically confirms receivers. IgmpResponder owns a host's multicast
// membership: it answers General Queries with a Membership Report for
// every joined group, so membership survives aging for exactly as long as
// the application holds the subscription.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "mcast/igmp.hpp"
#include "net/stack.hpp"

namespace tsn::mcast {

class IgmpResponder {
 public:
  // Installs itself as the stack's IGMP handler and subscribes the
  // all-hosts group MAC so queries reach it.
  explicit IgmpResponder(net::NetStack& stack);

  void join(net::Ipv4Addr group);
  void leave(net::Ipv4Addr group);

  // tsn-lint: allow(unreached-member) IgmpAging tests: answering queries keeps a join alive
  [[nodiscard]] bool is_joined(net::Ipv4Addr group) const {
    return groups_.contains(group);
  }
  [[nodiscard]] std::size_t joined_count() const noexcept { return groups_.size(); }
  [[nodiscard]] std::uint64_t reports_sent() const noexcept { return reports_sent_; }
  [[nodiscard]] std::uint64_t queries_answered() const noexcept { return queries_answered_; }

 private:
  void send_report(net::Ipv4Addr group);
  void on_igmp(const IgmpMessage& message);

  net::NetStack& stack_;
  std::unordered_set<net::Ipv4Addr> groups_;
  std::uint64_t reports_sent_ = 0;
  std::uint64_t queries_answered_ = 0;
};

}  // namespace tsn::mcast
