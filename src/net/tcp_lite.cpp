#include "net/tcp_lite.hpp"

#include <algorithm>

#include "net/stack.hpp"
#include "telemetry/trace.hpp"

namespace tsn::net {

TcpEndpoint::TcpEndpoint(NetStack& stack, MacAddr peer_mac, Ipv4Addr peer_ip,
                         std::uint16_t peer_port, std::uint16_t local_port)
    : stack_(stack),
      peer_mac_(peer_mac),
      peer_ip_(peer_ip),
      peer_port_(peer_port),
      local_port_(local_port) {}

TcpEndpoint::~TcpEndpoint() {
  // A pending RTO lambda captures `this`; cancel it so destruction (e.g.
  // NetStack::reap_closed) cannot leave a dangling timer in the engine.
  stack_.engine().cancel(rto_timer_);
}

void TcpEndpoint::set_state(TcpState state) {
  if (state_ == state) return;
  state_ = state;
  if (state_handler_) state_handler_(state);
}

void TcpEndpoint::notify_closed(TcpCloseReason reason) {
  if (closed_notified_) return;
  closed_notified_ = true;
  close_reason_ = reason;
  if (closed_handler_) closed_handler_(reason);
}

void TcpEndpoint::transmit_segment(std::uint32_t seq, std::span<const std::byte> payload,
                                   std::uint8_t flags) {
  TcpHeader tcp;
  tcp.src_port = local_port_;
  tcp.dst_port = peer_port_;
  tcp.seq = seq;
  tcp.ack = rcv_next_;
  tcp.flags = flags;
  auto frame = build_tcp_frame(stack_.nic().mac(), peer_mac_, stack_.nic().ip(), peer_ip_, tcp,
                               payload);
  stack_.nic().send_frame(std::move(frame));
}

void TcpEndpoint::start_connect() {
  set_state(TcpState::kSynSent);
  transmit_segment(0, {}, TcpHeader::kSyn);
  arm_rto();
}

void TcpEndpoint::accept_syn(std::uint32_t peer_isn) {
  rcv_next_ = peer_isn + 1;
  set_state(TcpState::kSynReceived);
  transmit_segment(0, {}, static_cast<std::uint8_t>(TcpHeader::kSyn | TcpHeader::kAck));
  arm_rto();
}

void TcpEndpoint::send(std::span<const std::byte> bytes) {
  // Segmentize immediately; segments created before establishment sit in
  // unacked_ and flush once the handshake completes.
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    const std::size_t len = std::min(kTcpMss, bytes.size() - offset);
    std::vector<std::byte> segment{bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                                   bytes.begin() + static_cast<std::ptrdiff_t>(offset + len)};
    const std::uint32_t seq = snd_next_;
    snd_next_ += static_cast<std::uint32_t>(len);
    unacked_.emplace_back(seq, std::move(segment));
    if (state_ == TcpState::kEstablished) {
      const auto& stored = unacked_.back().second;
      transmit_segment(seq, stored,
                       static_cast<std::uint8_t>(TcpHeader::kAck | TcpHeader::kPsh));
      bytes_sent_ += len;
    }
    offset += len;
  }
  if (!unacked_.empty()) arm_rto();
}

void TcpEndpoint::flush_send_queue() {
  for (const auto& [seq, segment] : unacked_) {
    transmit_segment(seq, segment, static_cast<std::uint8_t>(TcpHeader::kAck | TcpHeader::kPsh));
    bytes_sent_ += segment.size();
  }
  if (fin_seq_) send_fin();  // closed during the handshake
  if (!unacked_.empty()) arm_rto();
}

void TcpEndpoint::close() {
  const bool handshaking = state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived;
  if (fin_seq_ || !(handshaking || state_ == TcpState::kEstablished ||
                    state_ == TcpState::kCloseWait)) {
    return;
  }
  closed_notified_ = true;  // locally initiated: the owner already knows
  fin_seq_ = snd_next_++;   // the FIN consumes a sequence number
  // Mid-handshake, the FIN goes out once the handshake completes.
  if (!handshaking) send_fin();
}

void TcpEndpoint::send_fin() {
  transmit_segment(*fin_seq_, {}, static_cast<std::uint8_t>(TcpHeader::kFin | TcpHeader::kAck));
  // A held FIN means the peer is done too; closing gives up the bytes before it.
  const bool peer_done = state_ == TcpState::kCloseWait || held_fin_.has_value();
  set_state(peer_done ? TcpState::kClosed : TcpState::kFinWait);
  // The FIN rides the data's retransmit timer, or starts its own.
  if (state_ == TcpState::kFinWait && unacked_.empty()) arm_rto();
}

void TcpEndpoint::abort() {
  if (state_ == TcpState::kClosed) return;
  stack_.engine().cancel(rto_timer_);
  rto_timer_ = sim::EventHandle{};
  unacked_.clear();
  out_of_order_.clear();
  held_fin_.reset();
  set_state(TcpState::kClosed);
  notify_closed(TcpCloseReason::kAborted);
}

void TcpEndpoint::send_ack() {
  // Pure ACKs ride outside any trace: a traced data segment's delivery
  // triggers an ACK in the opposite direction, which would fork the trace
  // into a non-linear graph and break span tiling.
  telemetry::TraceScope untraced{0};
  transmit_segment(snd_next_, {}, TcpHeader::kAck);
}

void TcpEndpoint::arm_rto() {
  stack_.engine().cancel(rto_timer_);
  rto_timer_ = stack_.engine().schedule_in(kTcpRto, [this] { on_rto(); });
}

void TcpEndpoint::on_rto() {
  if (state_ == TcpState::kClosed) return;
  // Retransmissions are recovery traffic, not part of the original path.
  telemetry::TraceScope untraced{0};
  if (++rto_strikes_ > kTcpMaxRetransmits) {
    // The peer is unreachable. Tell the owner — stalling here silently is
    // exactly how a gateway loses track of its exchange session.
    set_state(TcpState::kClosed);
    notify_closed(TcpCloseReason::kRetransmitExhausted);
    return;
  }
  ++retransmits_;
  switch (state_) {
    case TcpState::kSynSent:
      transmit_segment(0, {}, TcpHeader::kSyn);
      break;
    case TcpState::kSynReceived:
      transmit_segment(0, {}, static_cast<std::uint8_t>(TcpHeader::kSyn | TcpHeader::kAck));
      break;
    default:
      // Go-back-N: retransmit everything outstanding, the FIN last.
      for (const auto& [seq, segment] : unacked_) {
        transmit_segment(seq, segment,
                         static_cast<std::uint8_t>(TcpHeader::kAck | TcpHeader::kPsh));
      }
      if (fin_seq_) {
        transmit_segment(*fin_seq_, {},
                         static_cast<std::uint8_t>(TcpHeader::kFin | TcpHeader::kAck));
      }
      break;
  }
  if (!unacked_.empty() || fin_seq_ || state_ == TcpState::kSynSent ||
      state_ == TcpState::kSynReceived) {
    arm_rto();
  }
}

void TcpEndpoint::deliver_in_order() {
  // Drain any out-of-order segments that are now contiguous.
  auto it = out_of_order_.begin();
  while (it != out_of_order_.end() && it->first <= rcv_next_) {
    if (it->first + it->second.size() > rcv_next_) {
      const std::size_t skip = rcv_next_ - it->first;
      std::span<const std::byte> fresh{it->second.data() + skip, it->second.size() - skip};
      rcv_next_ += static_cast<std::uint32_t>(fresh.size());
      bytes_received_ += fresh.size();
      if (data_handler_) data_handler_(fresh, stack_.engine().now());
    }
    it = out_of_order_.erase(it);
  }
}

void TcpEndpoint::accept_fin(std::uint32_t fin_seq) {
  held_fin_.reset();
  rcv_next_ = fin_seq + 1;  // the FIN consumes a sequence number
  send_ack();
  if (state_ == TcpState::kFinWait) {
    set_state(TcpState::kClosed);
  } else if (state_ == TcpState::kEstablished) {
    set_state(TcpState::kCloseWait);
    notify_closed(TcpCloseReason::kPeerFin);
  }
}

void TcpEndpoint::on_segment(const TcpHeader& tcp, std::span<const std::byte> payload,
                             sim::Time arrival) {
  // A closed endpoint is done: it answers nothing, not even a resent FIN.
  if (state_ == TcpState::kClosed) return;
  if ((tcp.flags & TcpHeader::kSyn) != 0 && (tcp.flags & TcpHeader::kAck) != 0) {
    if (state_ == TcpState::kSynSent) {
      rcv_next_ = tcp.seq + 1;
      rto_strikes_ = 0;
      stack_.engine().cancel(rto_timer_);
      rto_timer_ = sim::EventHandle{};
      set_state(TcpState::kEstablished);
      send_ack();
      flush_send_queue();
    } else {
      send_ack();  // duplicate SYN-ACK: our ACK was lost
    }
    return;
  }

  if ((tcp.flags & TcpHeader::kAck) != 0) {
    if (state_ == TcpState::kSynReceived) {
      rto_strikes_ = 0;
      stack_.engine().cancel(rto_timer_);
      rto_timer_ = sim::EventHandle{};
      set_state(TcpState::kEstablished);
      flush_send_queue();
    }
    bool advanced = false;
    while (!unacked_.empty()) {
      const auto& [seq, segment] = unacked_.front();
      if (seq + segment.size() <= tcp.ack) {
        unacked_.pop_front();
        advanced = true;
      } else {
        break;
      }
    }
    if (fin_seq_ && tcp.ack > *fin_seq_) {
      fin_seq_.reset();  // the peer has our FIN
      advanced = true;
    }
    if (advanced) {
      snd_una_ = tcp.ack;
      rto_strikes_ = 0;
      stack_.engine().cancel(rto_timer_);
      rto_timer_ = sim::EventHandle{};
      if (!unacked_.empty() || fin_seq_) arm_rto();
    }
  }

  if (!payload.empty() && state_ == TcpState::kEstablished) {
    if (tcp.seq == rcv_next_) {
      rcv_next_ += static_cast<std::uint32_t>(payload.size());
      bytes_received_ += payload.size();
      if (data_handler_) data_handler_(payload, arrival);
      deliver_in_order();
      if (held_fin_ == rcv_next_) {
        accept_fin(rcv_next_);  // its ACK covers the data as well
      } else {
        send_ack();
      }
    } else if (tcp.seq > rcv_next_) {
      out_of_order_.emplace(tcp.seq,
                            std::vector<std::byte>{payload.begin(), payload.end()});
      send_ack();  // duplicate ack signalling the gap
    } else {
      send_ack();  // stale retransmission
    }
  }

  if ((tcp.flags & TcpHeader::kFin) != 0) {
    const std::uint32_t fin_seq = tcp.seq + static_cast<std::uint32_t>(payload.size());
    if (state_ == TcpState::kEstablished && fin_seq > rcv_next_) {
      // Bytes before the FIN are missing: hold it, and ACK rcv_next_ so the
      // sender's retransmit timer resends them; the in-order path applies it.
      held_fin_ = fin_seq;
      send_ack();
    } else {
      accept_fin(fin_seq);
    }
  }
}

}  // namespace tsn::net
