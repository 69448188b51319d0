// A lightweight TCP: connection setup, ordered reliable byte streams,
// cumulative ACKs, and go-back-N retransmission on timeout.
//
// Order entry in trading systems runs on long-lived TCP connections (§2).
// This implementation provides the properties the paper's protocols rely on
// (in-order reliable delivery over possibly-lossy links) without modelling
// congestion control — trading order links are engineered to run far below
// capacity, so loss here comes from link loss models, not congestion.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "net/headers.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace tsn::net {

class NetStack;

enum class TcpState : std::uint8_t {
  kClosed,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait,
  kCloseWait,
};

// Every endpoint's segment size, retransmission timeout and strike limit.
inline constexpr std::size_t kTcpMss = 1400;
inline constexpr sim::Duration kTcpRto = sim::millis(std::int64_t{5});
inline constexpr int kTcpMaxRetransmits = 8;

// Why a connection died. Delivered once through the closed handler so the
// owner (e.g. the order gateway) can react instead of silently stalling.
enum class TcpCloseReason : std::uint8_t {
  kNone,                  // still open, or closed locally via close()
  kPeerFin,               // orderly shutdown initiated by the peer
  kRetransmitExhausted,   // kTcpMaxRetransmits strikes without an ACK
  kAborted,               // local abort() — immediate teardown, nothing on the wire
};

class TcpEndpoint {
 public:
  using DataHandler = std::function<void(std::span<const std::byte> bytes, sim::Time arrival)>;
  using StateHandler = std::function<void(TcpState state)>;
  using ClosedHandler = std::function<void(TcpCloseReason reason)>;

  // Construction is done by NetStack (active or passive open).
  TcpEndpoint(NetStack& stack, MacAddr peer_mac, Ipv4Addr peer_ip, std::uint16_t peer_port,
              std::uint16_t local_port);
  ~TcpEndpoint();

  void set_data_handler(DataHandler handler) { data_handler_ = std::move(handler); }
  void set_state_handler(StateHandler handler) { state_handler_ = std::move(handler); }
  // Fired exactly once when the connection dies for a reason the owner did
  // not initiate through close(): peer FIN, retransmit exhaustion, abort().
  void set_closed_handler(ClosedHandler handler) { closed_handler_ = std::move(handler); }

  // Queues bytes for ordered reliable delivery to the peer.
  void send(std::span<const std::byte> bytes);
  // Graceful close (FIN). The FIN is resent until acknowledged, within the
  // retransmit budget; a close() during the handshake sends it once the
  // handshake completes.
  void close();
  // Immediate local teardown: no FIN, pending retransmissions cancelled, the
  // closed handler fires with kAborted. Safe to call only from outside this
  // endpoint's own callbacks (it may destroy in-flight delivery state).
  void abort();

  [[nodiscard]] TcpState state() const noexcept { return state_; }
  [[nodiscard]] TcpCloseReason close_reason() const noexcept { return close_reason_; }
  [[nodiscard]] std::uint16_t local_port() const noexcept { return local_port_; }
  [[nodiscard]] std::uint16_t peer_port() const noexcept { return peer_port_; }
  [[nodiscard]] Ipv4Addr peer_ip() const noexcept { return peer_ip_; }
  [[nodiscard]] std::uint64_t retransmit_count() const noexcept { return retransmits_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept { return bytes_received_; }

 private:
  friend class NetStack;

  void start_connect();              // SYN (active open)
  void accept_syn(std::uint32_t peer_isn);  // passive open path
  void on_segment(const TcpHeader& tcp, std::span<const std::byte> payload, sim::Time arrival);
  void transmit_segment(std::uint32_t seq, std::span<const std::byte> payload, std::uint8_t flags);
  void send_ack();
  void send_fin();
  void flush_send_queue();
  void arm_rto();
  void on_rto();
  void set_state(TcpState state);
  void deliver_in_order();
  void accept_fin(std::uint32_t fin_seq);
  void notify_closed(TcpCloseReason reason);

  NetStack& stack_;
  MacAddr peer_mac_;
  Ipv4Addr peer_ip_;
  std::uint16_t peer_port_;
  std::uint16_t local_port_;
  TcpState state_ = TcpState::kClosed;

  // Send side.
  std::uint32_t snd_next_ = 1;  // next new sequence to assign
  std::uint32_t snd_una_ = 1;   // oldest unacknowledged
  std::deque<std::pair<std::uint32_t, std::vector<std::byte>>> unacked_;  // (seq, segment)
  // Our FIN's sequence number from close() until an ACK covers it; resent
  // with unacked_ on every retransmit timeout.
  std::optional<std::uint32_t> fin_seq_;
  sim::EventHandle rto_timer_;
  int rto_strikes_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t bytes_sent_ = 0;

  // Receive side.
  std::uint32_t rcv_next_ = 0;
  std::map<std::uint32_t, std::vector<std::byte>> out_of_order_;
  // A FIN that arrived ahead of missing bytes: its sequence number, applied
  // once rcv_next_ reaches it.
  std::optional<std::uint32_t> held_fin_;
  std::uint64_t bytes_received_ = 0;

  DataHandler data_handler_;
  StateHandler state_handler_;
  ClosedHandler closed_handler_;
  TcpCloseReason close_reason_ = TcpCloseReason::kNone;
  bool closed_notified_ = false;
};

}  // namespace tsn::net
