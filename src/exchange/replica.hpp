// Hot-standby exchange replication (the PR 10 tentpole).
//
// Production trading plants run the matching engine as a sequenced
// primary/backup pair: the primary streams its *admitted input sequence* —
// not its outputs — to a hot standby that applies every admission through
// the identical deterministic handlers, so the pair's state digests are
// byte-equal at every sequence point and the standby can take over
// mid-session (see PAPERS.md: Ashfaq et al.'s cloud exchange and the
// Miles & Cliff distributed-exchange simulator, which both assume exactly
// this input-sequenced replication).
//
// Two halves, each a "sidecar" with its own Host/NIC so the replication
// bridge is a real simulated link (partitionable by fault::FaultInjector):
//
//   ReplicaStream  (primary side)  — implements Exchange::InputListener.
//     Admissions staged during an event cascade flush to the wire in the
//     same instant (zero-delay flush), so any client-visible ack implies
//     the admission's record is already on the wire: a crash can lose
//     un-acked admissions (the gateway resubmits those under dedupe) but
//     never an acked one. Emitted records are retained for NAK-driven
//     retransmission after loss or a healed partition. Periodic heartbeats
//     carry (epoch, flushed_seq, state_digest) for lag and parity checks.
//
//   ReplicaApplier (backup side) — applies records in sequence against the
//     backup Exchange (feed muted, accepts refused while following),
//     verifies the digest whenever a heartbeat finds it fully caught up,
//     and acks progress with (epoch, applied_seq) status datagrams. At
//     promotion the applier bumps its epoch past the last one the primary
//     announced; the status stream then doubles as the fence — a stale
//     primary that hears a higher epoch silences itself (split-brain
//     resolution after a healed partition).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exchange/exchange.hpp"
#include "net/stack.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::exchange {

struct ReplicaConfig {
  std::string name = "repl";
  net::MacAddr local_mac;
  net::Ipv4Addr local_ip;
  net::MacAddr peer_mac;
  net::Ipv4Addr peer_ip;
  std::uint16_t local_port = 36000;
  std::uint16_t peer_port = 36001;
  // Stream-side heartbeat cadence; the backup's failure detector budgets
  // its suspect/promote thresholds in multiples of this.
  sim::Duration heartbeat_interval = sim::millis(std::int64_t{1});
};

// Record/datagram wire format (little-endian):
//   type 1 records:   [u8 1][u64 epoch] then per record
//                     [u32 rep_seq][u8 kind][i64 at_ps][u32 session][u16 len][payload]
//                     kind 0 login (payload u64 token), 1 message (BOE-framed,
//                     seq 0), 2 session_dead (empty)
//   type 2 heartbeat: [u8 2][u64 epoch][u32 flushed_seq][u64 state_digest]
//   type 3 status:    [u8 3][u64 epoch][u32 applied_seq]

struct ReplicaStreamStats {
  std::uint64_t records_emitted = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t statuses_received = 0;
  std::uint64_t records_retransmitted = 0;
  std::uint64_t retransmit_bursts = 0;
};

class ReplicaStream final : public InputListener {
 public:
  ReplicaStream(sim::Scheduler& engine, Exchange& primary, ReplicaConfig config);
  ~ReplicaStream();
  ReplicaStream(const ReplicaStream&) = delete;
  ReplicaStream& operator=(const ReplicaStream&) = delete;

  [[nodiscard]] net::Nic& nic() noexcept { return *nic_; }

  // Installs the admission tap on the primary and starts heartbeats.
  void start();

  // Process death: the stream dies with its exchange (one process). The
  // drill's kProcessCrash callback calls both.
  void crash() noexcept { crashed_ = true; }

  // InputListener — admissions stage a record and arm a same-instant flush.
  void on_admitted_login(std::uint32_t session_id, std::uint64_t token) override;
  void on_admitted_message(std::uint32_t session_id,
                           const proto::boe::Message& message) override;
  void on_admitted_session_dead(std::uint32_t session_id) override;

  [[nodiscard]] const ReplicaStreamStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] bool fenced() const noexcept { return fenced_; }

  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const;

 private:
  void stage(std::uint8_t kind, std::uint32_t session_id, std::span<const std::byte> payload);
  void schedule_wire_flush();
  void wire_flush();
  void send_records(std::uint32_t first_seq, std::uint32_t last_seq, bool retransmit);
  void heartbeat_tick();
  void on_datagram(std::span<const std::byte> payload);

  sim::Scheduler& engine_;
  Exchange& primary_;
  ReplicaConfig config_;
  std::unique_ptr<net::Host> host_;
  net::Nic* nic_ = nullptr;
  std::unique_ptr<net::NetStack> stack_;

  // Every emitted record, encoded, indexed by rep_seq - 1: the retransmit
  // source. Journal-tail analogue for the replication channel.
  std::vector<std::vector<std::byte>> records_;
  std::uint32_t next_rep_seq_ = 1;
  std::uint32_t flushed_seq_ = 0;  // highest rep_seq on the wire
  bool flush_scheduled_ = false;
  bool crashed_ = false;
  bool fenced_ = false;
  std::uint64_t epoch_;
  // Progress watermark from the previous status: a repeat with no progress
  // while we hold more records means loss, and triggers the retransmit.
  std::uint32_t last_status_applied_ = 0;
  bool saw_status_ = false;
  std::vector<std::byte> scratch_record_;
  std::vector<std::byte> scratch_datagram_;
  ReplicaStreamStats stats_;
};

struct ReplicaApplierStats {
  std::uint64_t datagrams_received = 0;
  std::uint64_t records_applied = 0;
  std::uint64_t records_stale = 0;   // rep_seq already applied (retransmit overlap)
  std::uint64_t records_gapped = 0;  // out-of-order arrivals awaiting retransmit
  std::uint64_t heartbeats_received = 0;
  std::uint64_t stale_epoch_dropped = 0;  // post-promotion traffic from the old leader
  std::uint64_t digests_checked = 0;
  std::uint64_t digest_mismatches = 0;
  std::uint64_t statuses_sent = 0;
  std::uint32_t lag_last = 0;  // flushed_seq - applied_seq at the last heartbeat
  std::uint32_t lag_max = 0;
};

class ReplicaApplier {
 public:
  ReplicaApplier(sim::Scheduler& engine, Exchange& backup, ReplicaConfig config);
  ~ReplicaApplier();
  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  [[nodiscard]] net::Nic& nic() noexcept { return *nic_; }

  // Binds the record/heartbeat port and starts the status cadence. Also
  // initializes the heartbeat watermark so a standby started at t=0 does
  // not instantly suspect a primary that has not spoken yet.
  void start();

  // Promotion: adopt an epoch above anything the old primary announced.
  // The regular status stream then fences the old leader on contact.
  void begin_promotion() noexcept;

  [[nodiscard]] sim::Time last_heartbeat_at() const noexcept { return last_heartbeat_at_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const ReplicaApplierStats& stats() const noexcept { return stats_; }

  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const;

 private:
  void on_datagram(std::span<const std::byte> payload);
  void apply_record(std::uint8_t kind, std::uint32_t session_id, std::int64_t at_ps,
                    std::span<const std::byte> payload);
  void status_tick();

  sim::Scheduler& engine_;
  Exchange& backup_;
  ReplicaConfig config_;
  std::unique_ptr<net::Host> host_;
  net::Nic* nic_ = nullptr;
  std::unique_ptr<net::NetStack> stack_;

  std::uint32_t applied_seq_ = 0;
  std::uint64_t epoch_;
  std::uint64_t remote_epoch_;
  sim::Time last_heartbeat_at_;
  bool started_ = false;
  ReplicaApplierStats stats_;
};

}  // namespace tsn::exchange
