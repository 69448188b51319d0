// A BOE test client: one TCP leg to an order-entry listener (an exchange or
// a gateway), sending each message under the client's own sequence and
// keeping everything it receives — the raw bytes, the (sequence, message)
// log, and typed views of that log.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "net/stack.hpp"
#include "proto/boe.hpp"

namespace tsn {

struct BoeClient {
  net::TcpEndpoint* ep;
  proto::boe::StreamParser parser;
  std::vector<std::byte> raw;  // every byte received, in order
  std::vector<std::pair<std::uint32_t, proto::boe::Message>> msgs;
  std::uint32_t seq = 1;

  // Opens the leg from `stack` to the listener at (mac, ip, port).
  BoeClient(net::NetStack& stack, net::MacAddr mac, net::Ipv4Addr ip, std::uint16_t port)
      : ep(&stack.connect_tcp(mac, ip, port, 0)) {
    ep->set_data_handler([this](std::span<const std::byte> bytes, sim::Time) {
      raw.insert(raw.end(), bytes.begin(), bytes.end());
      parser.feed(bytes);
      while (auto decoded = parser.next()) msgs.emplace_back(decoded->seq, decoded->message);
    });
  }
  BoeClient(const BoeClient&) = delete;
  BoeClient& operator=(const BoeClient&) = delete;

  void send(const proto::boe::Message& message) { ep->send(proto::boe::encode(message, seq++)); }

  template <typename T>
  [[nodiscard]] std::vector<T> received() const {
    std::vector<T> out;
    for (const auto& [msg_seq, msg] : msgs) {
      if (const auto* typed = std::get_if<T>(&msg)) out.push_back(*typed);
    }
    return out;
  }
};

}  // namespace tsn
