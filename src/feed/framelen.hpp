// Per-exchange frame-length profiles — Table 1.
//
// Each exchange chooses its own binary format, packing policy and MTU
// ceiling (§2), which is why the paper's Table 1 shows three distinct
// min/avg/median/max signatures. This module generates complete Ethernet
// frames through the real TsnPitch encoder and UDP/IP framing — frame
// lengths are measured, never computed from a formula — with per-exchange
// message mixes and packing behaviour calibrated to the paper's rows:
//
//     Feed         min    avg  median   max
//     Exchange A    73     92      89  1514
//     Exchange B    64    113      76  1067
//     Exchange C    81    151     101  1442
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "feed/symbols.hpp"
#include "net/headers.hpp"
#include "proto/pitch.hpp"
#include "sim/random.hpp"

namespace tsn::feed {

struct FeedProfile {
  std::string name;
  // Message-type mix (weights; normalized internally).
  double add_weight = 0.45;
  double execute_weight = 0.15;
  double reduce_weight = 0.08;
  double modify_weight = 0.12;
  double delete_weight = 0.12;
  double trade_weight = 0.08;
  // Fraction of add orders that need the 34-byte long form.
  double long_form_fraction = 0.3;
  // Probability a datagram packs more than one message, and the geometric
  // continuation probability for each further message.
  double multi_message_probability = 0.25;
  double pack_continue_probability = 0.55;
  // Probability of a burst datagram packed to the MTU ceiling.
  double burst_probability = 0.01;
  // Datagram payload ceiling (drives the max frame length).
  std::size_t mtu_payload = net::kMaxDatagramPayload;
};

// Profiles calibrated to the paper's three feeds.
[[nodiscard]] FeedProfile exchange_a_profile();
[[nodiscard]] FeedProfile exchange_b_profile();
[[nodiscard]] FeedProfile exchange_c_profile();

class FrameLengthSampler {
 public:
  FrameLengthSampler(FeedProfile profile, std::uint64_t seed);

  // Next complete Ethernet frame (header + IP + UDP + payload + pad + FCS).
  [[nodiscard]] std::vector<std::byte> next_frame();


 private:
  void generate_datagrams();
  [[nodiscard]] proto::pitch::Message random_message();

  FeedProfile profile_;
  sim::Rng rng_;
  SymbolUniverse universe_;
  std::deque<std::vector<std::byte>> pending_payloads_;
  proto::pitch::FrameBuilder builder_;
  std::uint64_t next_order_id_ = 1;
  std::uint32_t clock_seconds_ = 34'200;  // 9:30am
  std::uint64_t messages_since_tick_ = 0;
};

}  // namespace tsn::feed
