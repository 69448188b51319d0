#include "capture/replay.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "net/headers.hpp"
#include "net/wire.hpp"

namespace tsn::capture {

std::vector<std::byte> FrameRecorder::serialize() const {
  std::vector<std::byte> out;
  net::WireWriter w{out};
  w.u32(0x7ca97e01);  // magic + version
  w.u64(frames_.size());
  for (const auto& frame : frames_) {
    w.u64(static_cast<std::uint64_t>(frame.at.picos()));
    w.u32(static_cast<std::uint32_t>(frame.frame.size()));
    w.bytes(frame.frame);
  }
  return out;
}

std::vector<RecordedFrame> FrameRecorder::deserialize(std::span<const std::byte> blob) {
  net::WireReader r{blob};
  if (r.u32() != 0x7ca97e01) throw std::invalid_argument{"not a capture blob"};
  const std::uint64_t count = r.u64();
  // The count comes from outside the program: reserve only what the bytes
  // left can hold, so a lying count fails below as a truncated blob.
  constexpr std::size_t kMinFrameBytes = 12;  // its time (u64) and length (u32)
  std::vector<RecordedFrame> out;
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining() / kMinFrameBytes)));
  for (std::uint64_t i = 0; i < count; ++i) {
    RecordedFrame frame;
    frame.at = sim::Time{static_cast<std::int64_t>(r.u64())};
    const std::uint32_t length = r.u32();
    const auto bytes = r.bytes(length);
    if (!r.ok()) throw std::invalid_argument{"truncated capture blob"};
    frame.frame.assign(bytes.begin(), bytes.end());
    out.push_back(std::move(frame));
  }
  return out;
}

std::size_t FrameReplayer::replay(const std::vector<RecordedFrame>& recording, sim::Time start,
                                  double speed) {
  if (speed <= 0.0) throw std::invalid_argument{"speed must be positive"};
  if (recording.empty()) return 0;
  const sim::Time origin = recording.front().at;
  for (const auto& recorded : recording) {
    const double offset_ps = static_cast<double>((recorded.at - origin).picos()) / speed;
    const sim::Time at = start + sim::Duration{static_cast<std::int64_t>(offset_ps)};
    // Own the bytes inside the event: the recording may be destroyed
    // before the replay fires.
    auto bytes = std::make_shared<const std::vector<std::byte>>(recorded.frame);
    engine_.schedule_at(at, [this, bytes] {
      out_.send_frame(std::span<const std::byte>{*bytes});
      ++sent_;
    });
  }
  return recording.size();
}

std::uint64_t BookReplayer::replay_frame(std::span<const std::byte> frame) {
  const auto decoded = net::decode_frame(frame);
  if (!decoded || !decoded->is_udp()) {
    ++stats_.malformed_datagrams;
    return 0;
  }
  return replay_payload(decoded->payload);
}

std::uint64_t BookReplayer::replay_payload(std::span<const std::byte> payload) {
  ++stats_.datagrams;
  if (!proto::pitch::decode_batch(payload, batch_)) {
    // The valid prefix still applies, as in the normalizer.
    ++stats_.malformed_datagrams;
  }
  return apply(batch_);
}

// tsn-lint: hotpath
std::uint64_t BookReplayer::apply(const proto::pitch::DecodedBatch& batch) {
  using proto::pitch::DecodedKind;
  std::uint64_t applied = 0;
  for (std::size_t i = 0; i < batch.count; ++i) {
    ++stats_.messages;
    switch (batch.kind[i]) {
      case DecodedKind::kAddOrder:
        // A replica rests what the exchange rested and never matches: a
        // stale order left by a lost message must not trade (OrderBook::rest).
        (void)book_.rest(book::Order{batch.order_id[i], batch.side[i], batch.price[i],
                                     batch.quantity[i]});
        ++applied;
        break;
      case DecodedKind::kOrderExecuted:
      case DecodedKind::kReduceSize:
      case DecodedKind::kModifyOrder:
      case DecodedKind::kDeleteOrder: {
        const proto::OrderId id = batch.order_id[i];
        const auto resting = book_.find(id);
        if (!resting) {
          ++stats_.unknown_orders;
          break;
        }
        if (batch.kind[i] == DecodedKind::kModifyOrder) {
          // Cancel, then rest at the back of the new level.
          (void)book_.cancel(id);
          (void)book_.rest(book::Order{id, resting->side, batch.price[i], batch.quantity[i]});
        } else if (batch.kind[i] == DecodedKind::kDeleteOrder) {
          (void)book_.cancel(id);
        } else {
          // An execute or a reduce takes at most what rests; reducing to 0
          // cancels.
          const proto::Quantity cut = std::min(batch.quantity[i], resting->quantity);
          (void)book_.reduce(id, resting->quantity - cut);
        }
        ++applied;
        break;
      }
      case DecodedKind::kTime:
      case DecodedKind::kTrade:
      case DecodedKind::kSnapshotBegin:
      case DecodedKind::kSnapshotEnd:
        // Clock, off-book prints, and snapshot framing carry no book edits.
        break;
    }
  }
  return applied;
}

std::uint64_t BookReplayer::replay(const std::vector<RecordedFrame>& recording) {
  std::uint64_t applied = 0;
  for (const auto& recorded : recording) {
    applied += replay_frame(recorded.frame);
  }
  return applied;
}

}  // namespace tsn::capture
