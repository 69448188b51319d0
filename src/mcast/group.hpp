// Multicast group addressing and allocation.
//
// Exchanges partition their feeds across many multicast groups, and trading
// firms re-partition normalized data across many more (§2, §3). The
// allocator hands out groups from an administratively-scoped range, one
// block per feed, so group assignments are stable and readable in logs.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "net/addr.hpp"

namespace tsn::mcast {

// Allocates consecutive groups from 239.x.y.z (administratively scoped).
class GroupAllocator {
 public:
  // `base` must be a multicast address; blocks are carved after it.
  explicit GroupAllocator(net::Ipv4Addr base = net::Ipv4Addr{239, 1, 0, 0})
      : base_(base), next_(base.value()) {
    if (!base.is_multicast()) throw std::invalid_argument{"base must be multicast"};
  }

  // Reserves `count` consecutive groups under `label` and returns the first.
  net::Ipv4Addr allocate_block(const std::string& label, std::uint32_t count) {
    if (count == 0) throw std::invalid_argument{"empty block"};
    const net::Ipv4Addr first{next_};
    if (!net::Ipv4Addr{next_ + count - 1}.is_multicast()) {
      throw std::length_error{"multicast range exhausted"};
    }
    blocks_.emplace(label, Block{first, count});
    next_ += count;
    return first;
  }

  struct Block {
    net::Ipv4Addr first;
    std::uint32_t count = 0;

    [[nodiscard]] net::Ipv4Addr group(std::uint32_t index) const {
      if (index >= count) throw std::out_of_range{"group index outside block"};
      return net::Ipv4Addr{first.value() + index};
    }
  };

  [[nodiscard]] const Block& block(const std::string& label) const { return blocks_.at(label); }
  [[nodiscard]] std::uint32_t total_allocated() const noexcept { return next_ - base_.value(); }

 private:
  net::Ipv4Addr base_;
  std::uint32_t next_;
  std::unordered_map<std::string, Block> blocks_;
};

}  // namespace tsn::mcast
