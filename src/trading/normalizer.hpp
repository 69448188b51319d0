// Market-data normalizer (§2).
//
// Subscribes to one exchange's raw feed units, decodes the exchange-native
// TsnPitch messages, reconstructs enough book state to attribute executes/
// deletes/modifies to symbols, converts everything into the firm's NORM
// format, tags BBO-affecting updates, and republishes on the firm's own
// multicast partitions under the firm's partitioning scheme. This performs
// the common processing once so dozens of strategy servers don't repeat it.
//
// The normalizer also watches feed sequence numbers per unit and counts
// gaps — the loss signal that matters operationally when mroute tables
// overflow or merged feeds saturate.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcast/responder.hpp"
#include "net/stack.hpp"
#include "proto/norm.hpp"
#include "proto/partition.hpp"
#include "proto/pitch.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::trading {

struct NormalizerConfig {
  std::string name = "norm";
  std::uint8_t exchange_id = 0;
  // Exchange feed groups to subscribe to (a subset of the exchange's units).
  std::vector<net::Ipv4Addr> feed_groups;
  std::uint16_t feed_port = 30001;
  // Snapshot (gap-recovery) channel. When configured, a detected sequence
  // gap puts the affected unit into recovery: live datagrams are buffered,
  // the next whole snapshot cycle rebuilds the unit's order state, and
  // buffered messages past its resume point are replayed. Requires
  // exchange_partitioning (to know which symbols belong to the unit).
  std::vector<net::Ipv4Addr> snapshot_groups;
  std::uint16_t snapshot_port = 30002;  // tsn-lint: allow(unset-option) deployment port
  std::shared_ptr<const proto::PartitionScheme> exchange_partitioning;
  // Firm-side output partitioning.
  std::shared_ptr<const proto::PartitionScheme> partitioning;
  net::Ipv4Addr out_group_base{239, 200, 0, 0};  // tsn-lint: allow(unset-option) deployment address
  std::uint16_t out_port = 31001;  // tsn-lint: allow(unset-option) deployment port
  // Kernel-bypass software hop (§3: below 1 us on tuned hosts).
  sim::Duration software_latency = sim::nanos(std::int64_t{800});
  net::MacAddr in_mac;
  net::Ipv4Addr in_ip;
  net::MacAddr out_mac;
  net::Ipv4Addr out_ip;
};

struct NormalizerStats {
  std::uint64_t datagrams_in = 0;
  std::uint64_t messages_in = 0;
  std::uint64_t updates_out = 0;
  std::uint64_t datagrams_out = 0;
  std::uint64_t bbo_updates = 0;
  std::uint64_t unknown_orders = 0;  // executes/deletes for unseen order ids
  std::uint64_t sequence_gaps = 0;
  std::uint64_t messages_lost = 0;  // inferred from gap sizes
  // Snapshot recovery.
  std::uint64_t resyncs_started = 0;
  std::uint64_t resyncs_completed = 0;
  std::uint64_t snapshot_orders_applied = 0;
  std::uint64_t messages_buffered_in_recovery = 0;
  std::uint64_t messages_replayed_after_recovery = 0;
};

class Normalizer {
 public:
  Normalizer(sim::Scheduler& engine, NormalizerConfig config);
  ~Normalizer();
  Normalizer(const Normalizer&) = delete;
  Normalizer& operator=(const Normalizer&) = delete;

  [[nodiscard]] net::Nic& in_nic() noexcept { return *in_nic_; }
  [[nodiscard]] net::Nic& out_nic() noexcept { return *out_nic_; }

  // Joins every configured feed group (and keeps the membership alive
  // against switch aging via an IGMP responder). Call after the NICs are
  // wired into the topology.
  void join_feeds();

  [[nodiscard]] net::Ipv4Addr partition_group(std::uint32_t partition) const noexcept {
    return net::Ipv4Addr{config_.out_group_base.value() + partition};
  }
  [[nodiscard]] std::uint32_t partition_count() const noexcept {
    return config_.partitioning->partition_count();
  }
  [[nodiscard]] const NormalizerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const NormalizerConfig& config() const noexcept { return config_; }

  // Registers decode/republish/gap counters as gauges under "<prefix>".
  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const;

  // Monitoring view: the normalizer's reconstructed best bid/ask for a
  // symbol (zeros for missing sides; nullopt when the symbol is unknown).
  struct ReconstructedBbo {
    proto::Price bid = 0;
    proto::Price ask = 0;
  };
  [[nodiscard]] std::optional<ReconstructedBbo> best_of(const proto::Symbol& symbol) const;
  [[nodiscard]] std::size_t tracked_orders() const noexcept { return orders_.size(); }

 private:
  struct OrderInfo {
    proto::Symbol symbol;
    proto::Side side = proto::Side::kBuy;
    proto::Price price = 0;
    proto::Quantity quantity = 0;
  };

  // Aggregated price ladder for BBO detection.
  struct Ladder {
    std::map<proto::Price, proto::Quantity, std::greater<>> bids;
    std::map<proto::Price, proto::Quantity, std::less<>> asks;

    [[nodiscard]] std::pair<proto::Price, proto::Price> best() const noexcept {
      return {bids.empty() ? 0 : bids.begin()->first, asks.empty() ? 0 : asks.begin()->first};
    }
  };

  struct Partition;
  struct Recovery;

  void on_feed_datagram(std::span<const std::byte> payload, sim::Time arrival);
  void on_snapshot_datagram(std::span<const std::byte> payload);
  // Flat-column switch over rows [first, count) of one decoded datagram:
  // counts each message and forwards it to its per-type handler.
  void apply_batch(const proto::pitch::DecodedBatch& batch, std::size_t first = 0);
  // Replays the buffered tail's messages from the resume point on. The
  // tail is left as it is; the next recovery restarts it.
  void replay_tail(const Recovery& recovery);
  void handle_time(std::uint32_t seconds_since_midnight);
  void handle_add(const proto::pitch::AddOrder& add);
  void handle_exec(const proto::pitch::OrderExecuted& exec);
  void handle_reduce(const proto::pitch::ReduceSize& reduce);
  void handle_modify(const proto::pitch::ModifyOrder& modify);
  void handle_delete(const proto::pitch::DeleteOrder& del);
  void handle_trade(const proto::pitch::Trade& trade);
  [[nodiscard]] OrderInfo* resolve(proto::OrderId id);
  void emit(const proto::norm::Update& update);
  // Applies a depth change; when the side's top of book moved, returns the
  // new best (price 0 / quantity 0 for an emptied side).
  struct TopChange {
    bool changed = false;
    proto::Price best = 0;
    proto::Quantity quantity = 0;
  };
  TopChange apply_depth(const proto::Symbol& symbol, proto::Side side, proto::Price price,
                        std::int64_t delta);
  // Emits the explicit top-of-book update real normalized feeds carry.
  void emit_bbo(const proto::Symbol& symbol, proto::Side side, const TopChange& change,
                std::uint64_t exchange_time_ns);
  void purge_unit_state(std::uint8_t unit);
  [[nodiscard]] bool recovery_enabled() const noexcept {
    return !config_.snapshot_groups.empty();
  }

  sim::Scheduler& engine_;
  NormalizerConfig config_;
  std::unique_ptr<net::Host> host_;
  net::Nic* in_nic_ = nullptr;
  net::Nic* out_nic_ = nullptr;
  std::unique_ptr<net::NetStack> in_stack_;
  std::unique_ptr<net::NetStack> out_stack_;
  std::unique_ptr<mcast::IgmpResponder> responder_;
  std::vector<std::unique_ptr<Partition>> partitions_;
  // Reusable decode buffers (warm after the first datagram; columns keep
  // their capacity). The snapshot loop iterates its own buffer, because a
  // completing cycle replays the live tail through `batch_` mid-loop.
  proto::pitch::DecodedBatch batch_;
  proto::pitch::DecodedBatch snapshot_batch_;
  std::unordered_map<proto::OrderId, OrderInfo> orders_;
  std::unordered_map<proto::Symbol, Ladder> ladders_;
  std::unordered_map<std::uint8_t, std::uint32_t> expected_seq_;  // per unit
  std::uint32_t clock_seconds_ = 0;
  // Wire arrival of the feed datagram currently being processed (software
  // span start for updates it triggers).
  sim::Time current_input_arrival_;

  // Recovery state, per unit.
  struct Recovery {
    bool recovering = false;
    bool snapshot_active = false;
    std::uint32_t resume_sequence = 0;
    std::uint32_t snapshot_orders = 0;  // adds applied in the active cycle
    // Buffered live tail: whole datagrams back to back, each as it arrived
    // (its unit header bounds it). The arena keeps its capacity across
    // recoveries. `tail_start` is the sequence the tail covers from without
    // a hole; `tail_messages` counts its decodable messages.
    std::vector<std::byte> tail;
    std::uint32_t tail_start = 0;
    std::size_t tail_messages = 0;

    // Leading rows of a datagram whose first row is `sequence` that the
    // snapshot already holds: those below the resume point.
    [[nodiscard]] std::size_t rows_in_snapshot(std::uint32_t sequence) const noexcept {
      return resume_sequence > sequence ? resume_sequence - sequence : 0;
    }

    // Starts the tail afresh at `sequence`, abandoning any in-flight cycle.
    void restart_tail(std::uint32_t sequence) noexcept {
      snapshot_active = false;
      tail.clear();
      tail_start = sequence;
      tail_messages = 0;
    }
  };
  std::unordered_map<std::uint8_t, Recovery> recovery_;
  static constexpr std::size_t kRecoveryBufferLimit = 100'000;

  NormalizerStats stats_;
};

}  // namespace tsn::trading
