// Record-and-replay (§2).
//
// "Timestamps are also used for conducting simulations after the trading
// day has ended, and for analyzing the performance of new strategies
// being developed." This module closes that loop: a FrameRecorder captures
// complete frames with their timestamps (typically from a Tap's packet
// hook), and a FrameReplayer re-transmits the recording into a fresh
// simulation with the original inter-arrival spacing (optionally
// time-scaled). Because the simulator is deterministic, replaying a
// recorded feed through the same normalizer/strategy stack reproduces the
// day exactly — the property research tooling depends on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "book/order_book.hpp"
#include "net/nic.hpp"
#include "proto/pitch.hpp"
#include "sim/scheduler.hpp"

namespace tsn::capture {

struct RecordedFrame {
  sim::Time at;
  std::vector<std::byte> frame;
};

class FrameRecorder {
 public:
  void record(const net::PacketPtr& packet, sim::Time at) {
    frames_.push_back(RecordedFrame{
        at, std::vector<std::byte>{packet->frame().begin(), packet->frame().end()}});
  }

  [[nodiscard]] const std::vector<RecordedFrame>& frames() const noexcept { return frames_; }
  [[nodiscard]] std::size_t size() const noexcept { return frames_.size(); }
  void clear() noexcept { frames_.clear(); }

  // Serializes to a compact byte blob (and back): the "capture file".
  [[nodiscard]] std::vector<std::byte> serialize() const;
  [[nodiscard]] static std::vector<RecordedFrame> deserialize(
      std::span<const std::byte> blob);

 private:
  std::vector<RecordedFrame> frames_;
};

class FrameReplayer {
 public:
  // Replays into `out` (frames are sent exactly as recorded).
  FrameReplayer(sim::Scheduler& engine, net::Nic& out) noexcept : engine_(engine), out_(out) {}

  // Schedules every recorded frame: frame i fires at
  //   start + (recorded[i].at - recorded[0].at) / speed.
  // speed > 1 compresses time (a whole day in minutes); speed < 1 slows
  // it down. Returns the number of frames scheduled.
  std::size_t replay(const std::vector<RecordedFrame>& recording, sim::Time start,
                     double speed = 1.0);

  [[nodiscard]] std::size_t frames_sent() const noexcept { return sent_; }

 private:
  sim::Scheduler& engine_;
  net::Nic& out_;
  std::size_t sent_ = 0;
};

// Replay-to-book fast lane (ROADMAP item 4): walks a recording of feed
// frames straight into a book — decode_frame to find the UDP payload, one
// batch decode per datagram, then flat-column book updates. No scheduler,
// no NIC hop, no per-message variant: this is the path the "whole trading
// day through the strategy stack before tomorrow's open" use case needs,
// and what bench_micro_hotpaths measures as replay.to_book_msgs_per_s.
class BookReplayer {
 public:
  explicit BookReplayer(book::OrderBook& book) noexcept : book_(book) {}

  struct Stats {
    std::uint64_t datagrams = 0;
    std::uint64_t messages = 0;        // decoded rows seen
    std::uint64_t malformed_datagrams = 0;
    std::uint64_t unknown_orders = 0;  // executes/reduces/modifies/deletes for unseen ids
  };

  // Applies one recorded Ethernet frame (non-UDP frames are counted
  // malformed). Returns messages applied to the book.
  std::uint64_t replay_frame(std::span<const std::byte> frame);
  // Applies one already-deframed datagram payload.
  std::uint64_t replay_payload(std::span<const std::byte> payload);
  // Replays a whole recording in order; returns total messages applied.
  std::uint64_t replay(const std::vector<RecordedFrame>& recording);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] book::OrderBook& book() noexcept { return book_; }

 private:
  std::uint64_t apply(const proto::pitch::DecodedBatch& batch);

  book::OrderBook& book_;
  // Reusable batch buffer: warm replay decodes allocation-free.
  proto::pitch::DecodedBatch batch_;
  Stats stats_;
};

}  // namespace tsn::capture
