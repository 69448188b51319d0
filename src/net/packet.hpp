// The unit of transfer in the simulator: an immutable Ethernet frame plus
// simulation metadata.
//
// Packets are shared immutably (`PacketPtr`) so that multicast fan-out
// through switches does not copy payload bytes — mirroring how a real switch
// replicates a frame by reference until egress.
//
// Hot-path memory model: the paper's workloads are tiny frames at extreme
// rates (26 B new-order / 14 B cancel, ≥500k events/s — PAPER §3, Table 1),
// so frames up to `Packet::kInlineCapacity` live inside the Packet object
// itself, and `PacketFactory` recycles Packet-sized blocks through a
// freelist (`detail::BlockPool`). Once the pool is warm, a make → fan-out →
// drop cycle performs zero heap allocations; only MTU-scale frames (PITCH
// unit batches) fall back to heap payload storage. A `PacketPtr` is a
// counted reference whose count lives in the Packet; the counts are plain
// integers because a packet never leaves its thread (see `parse_` below).
// Recycling is reference-safe by construction: a block returns to the
// freelist only when the last PacketPtr drops, so a recycled frame can
// never alias through a still-held pointer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "net/headers.hpp"
#include "sim/time.hpp"
#include "telemetry/trace.hpp"

namespace tsn::net {

// Per-frame Ethernet wire overhead that never appears in the frame buffer:
// preamble + start-of-frame delimiter, and the inter-packet gap. Shared by
// Packet::wire_bytes(), the link serialization model, and the analytical
// latency model so they can never disagree.
inline constexpr std::size_t kPreambleSfdBytes = 8;
inline constexpr std::size_t kInterPacketGapBytes = 12;
inline constexpr std::size_t kWireOverheadBytes = kPreambleSfdBytes + kInterPacketGapBytes;

namespace detail {
class BlockPool;
}  // namespace detail

class Packet {
 public:
  // Covers every PITCH/BOE message frame in the paper's Table 1 (14–42 B
  // payloads; full frames stay ≤ 64 B only for the compressed/L1 formats,
  // so this is sized to the common small-control/market-message case).
  static constexpr std::size_t kInlineCapacity = 64;

  // Large frames move the vector in (zero copy); small ones are copied into
  // inline storage and the vector is discarded.
  // tsn-lint: hotpath
  Packet(std::vector<std::byte> frame, sim::Time created, std::uint64_t id,
         telemetry::TraceId trace = 0) noexcept
      : created_(created), id_(id), trace_(trace) {
    if (frame.size() <= kInlineCapacity) {
      size_ = static_cast<std::uint32_t>(frame.size());
      // tsn-lint: allow(raw-memcpy) bounds-checked by the branch above (size <= kInlineCapacity)
      if (!frame.empty()) std::memcpy(inline_frame_.data(), frame.data(), frame.size());
    } else {
      heap_frame_ = std::move(frame);
      size_ = static_cast<std::uint32_t>(heap_frame_.size());
      inline_stored_ = false;
    }
  }

  // Copies the bytes (inline when they fit), leaving the caller free to
  // reuse its scratch buffer — the allocation-free path for small frames.
  // tsn-lint: hotpath
  Packet(std::span<const std::byte> frame, sim::Time created, std::uint64_t id,
         telemetry::TraceId trace = 0)
      : created_(created), id_(id), trace_(trace) {
    size_ = static_cast<std::uint32_t>(frame.size());
    if (frame.size() <= kInlineCapacity) {
      // tsn-lint: allow(raw-memcpy) bounds-checked by the branch above (size <= kInlineCapacity)
      if (!frame.empty()) std::memcpy(inline_frame_.data(), frame.data(), frame.size());
    } else {
      heap_frame_.assign(frame.begin(), frame.end());
      inline_stored_ = false;
    }
  }

  // The parse cache's payload span points into this object's own storage.
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  [[nodiscard]] std::span<const std::byte> frame() const noexcept {
    return inline_stored_ ? std::span<const std::byte>{inline_frame_.data(), size_}
                          : std::span<const std::byte>{heap_frame_};
  }
  [[nodiscard]] std::size_t size_bytes() const noexcept { return size_; }
  // On-the-wire size including preamble + SFD and inter-packet gap, which is
  // what serialization delay must account for.
  [[nodiscard]] std::size_t wire_bytes() const noexcept { return size_ + kWireOverheadBytes; }
  // True when the frame lives inside the Packet object (no heap payload).
  [[nodiscard]] bool inline_stored() const noexcept { return inline_stored_; }

  // Origin timestamp: when the sender handed the frame to its NIC.
  [[nodiscard]] sim::Time created() const noexcept { return created_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  // Telemetry trace this frame belongs to (0 = untraced). Rewritten copies
  // of a frame (switch MAC rewrite, protocol relays) must carry it forward.
  [[nodiscard]] telemetry::TraceId trace() const noexcept { return trace_; }

  // The frame as `decode_frame` parses it, or nullptr when it rejects the
  // frame. Parsed on the first read of either view and kept, so every hop
  // after the first reads headers without re-parsing them.
  // tsn-lint: hotpath
  [[nodiscard]] const DecodedFrame* decoded() const {
    if (parse_ == Parse::kPending) parse();
    return parse_ == Parse::kDecoded ? &parsed_ : nullptr;
  }
  // The Ethernet header alone, which a NIC's MAC filter needs: present even
  // when `decoded()` is null because a later header failed to parse, and
  // null only for frames shorter than an Ethernet header.
  // tsn-lint: hotpath
  [[nodiscard]] const EthernetHeader* ethernet() const {
    if (parse_ == Parse::kPending) parse();
    return parse_ == Parse::kNoEthernet ? nullptr : &parsed_.eth;
  }

 private:
  friend class PacketPtr;
  friend class PacketFactory;

  enum class Parse : std::uint8_t { kPending, kNoEthernet, kEthernetOnly, kDecoded };

  void parse() const {
    if (auto frame_view = decode_frame(frame())) {
      parsed_ = *frame_view;
      parse_ = Parse::kDecoded;
      return;
    }
    WireReader r{frame()};
    if (auto eth = EthernetHeader::decode(r)) {
      parsed_.eth = *eth;
      parse_ = Parse::kEthernetOnly;
    } else {
      parse_ = Parse::kNoEthernet;
    }
  }

  std::vector<std::byte> heap_frame_;  // empty when inline_stored_
  std::array<std::byte, kInlineCapacity> inline_frame_;
  sim::Time created_;
  std::uint64_t id_;
  telemetry::TraceId trace_ = 0;
  std::uint32_t size_ = 0;
  // PacketPtr references, and the pool the block returns to when the last
  // one drops. A plain count, for the same reason as the parse cache below.
  std::uint32_t refs_ = 0;
  detail::BlockPool* pool_ = nullptr;
  bool inline_stored_ = true;
  // Parse cache behind decoded()/ethernet(). Filled lazily, not at
  // construction, so packets no hop parses (pool warm-up, drops) never pay
  // for it. Unlocked mutation of a shared immutable packet is safe because
  // a PacketPtr never crosses shards: net/bridge.hpp copies the bytes and
  // rebuilds the packet on the far shard, so every reader of one Packet
  // runs on one thread.
  mutable Parse parse_ = Parse::kPending;
  mutable DecodedFrame parsed_;
};

// A counted reference to a pooled Packet: copying it shares the frame,
// never the bytes. Only PacketFactory makes non-null ones.
class PacketPtr {
 public:
  PacketPtr() noexcept = default;
  PacketPtr(const PacketPtr& other) noexcept : p_(other.p_) {
    if (p_ != nullptr) ++p_->refs_;
  }
  PacketPtr(PacketPtr&& other) noexcept : p_(std::exchange(other.p_, nullptr)) {}
  // By value: the old reference drops when `other` goes out of scope.
  PacketPtr& operator=(PacketPtr other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~PacketPtr() { reset(); }

  void reset() noexcept;

  [[nodiscard]] const Packet* operator->() const noexcept { return p_; }
  [[nodiscard]] explicit operator bool() const noexcept { return p_ != nullptr; }

 private:
  friend class PacketFactory;
  // Takes the first reference to a Packet just built in a pooled block.
  explicit PacketPtr(Packet* packet) noexcept : p_(packet) { ++p_->refs_; }

  Packet* p_ = nullptr;
};

namespace detail {

// Freelist of Packet-sized blocks. It counts its own references by hand:
// one for the owning factory and one for every block out of the freelist,
// so a block released after its factory is gone still returns to a live
// pool, and whichever drops the last reference frees the pool.
// Single-threaded by design, like the simulator.
class BlockPool {
 public:
  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  // tsn-lint: hotpath
  [[nodiscard]] void* acquire() {
    if (!free_.empty()) {
      void* block = free_.back();
      free_.pop_back();
      ++reused_;
      ++refs_;
      return block;
    }
    // Sized before the block exists, so release() can never allocate: the
    // freelist's capacity covers every block this pool has handed out.
    free_.reserve(allocated_ + 1);
    // tsn-lint: allow(hotpath-alloc) cold-start growth: never taken once the pool is warm
    void* block = ::operator new(sizeof(Packet));
    ++allocated_;
    ++refs_;
    return block;
  }

  // tsn-lint: hotpath
  void release(void* block) noexcept {
    free_.push_back(block);
    drop();
  }

  // Drops one reference; the last one frees the pool and every block in it.
  void drop() noexcept {
    if (--refs_ == 0) delete this;
  }

  [[nodiscard]] std::uint64_t blocks_allocated() const noexcept { return allocated_; }
  [[nodiscard]] std::uint64_t blocks_reused() const noexcept { return reused_; }

 private:
  ~BlockPool() {
    for (void* block : free_) ::operator delete(block);
  }

  std::vector<void*> free_;
  std::uint64_t refs_ = 1;  // the owning factory's
  std::uint64_t allocated_ = 0;
  std::uint64_t reused_ = 0;
};

}  // namespace detail

// tsn-lint: hotpath
inline void PacketPtr::reset() noexcept {
  Packet* packet = std::exchange(p_, nullptr);
  if (packet == nullptr || --packet->refs_ != 0) return;
  detail::BlockPool* pool = packet->pool_;
  packet->~Packet();
  pool->release(packet);
}

// Process-wide monotonic packet ids; simulation determinism does not depend
// on ids, only uniqueness within a run. Packets are carved out of a
// per-factory freelist pool; see the file header for the recycling contract.
class PacketFactory {
 public:
  PacketFactory() = default;
  PacketFactory(const PacketFactory&) = delete;
  PacketFactory& operator=(const PacketFactory&) = delete;
  ~PacketFactory() { pool_->drop(); }

  // New frames are stamped with the ambient trace id, so a packet sent from
  // inside a TraceScope joins that scope's trace with no per-call plumbing.
  // tsn-lint: hotpath
  [[nodiscard]] PacketPtr make(std::vector<std::byte> frame, sim::Time created) {
    return emplace(std::move(frame), created, next_id_++, telemetry::current_trace());
  }
  // tsn-lint: hotpath
  [[nodiscard]] PacketPtr make(std::span<const std::byte> frame, sim::Time created) {
    return emplace(frame, created, next_id_++, telemetry::current_trace());
  }

  // Rewritten copy of an existing frame (e.g. a switch's last-hop MAC
  // rewrite): keeps the original id/timestamp/trace — it is the same frame
  // on the wire.
  // tsn-lint: hotpath
  [[nodiscard]] PacketPtr remake(std::span<const std::byte> frame, sim::Time created,
                                 std::uint64_t id, telemetry::TraceId trace) {
    return emplace(frame, created, id, trace);
  }

  // Pre-warms the freelist to at least `packets` recycled blocks.
  void reserve(std::size_t packets) {
    std::vector<PacketPtr> warm;
    warm.reserve(packets);
    const std::byte seed[1] = {};
    while (pool_->blocks_allocated() < packets) {
      warm.push_back(remake(std::span<const std::byte>{seed, 0}, sim::Time::zero(), 0, 0));
    }
  }

  [[nodiscard]] std::uint64_t pool_blocks_allocated() const noexcept {
    return pool_->blocks_allocated();
  }
  [[nodiscard]] std::uint64_t pool_blocks_reused() const noexcept {
    return pool_->blocks_reused();
  }

 private:
  // Builds a Packet in a pooled block; the block goes back if it throws.
  // tsn-lint: hotpath
  template <typename Frame>
  [[nodiscard]] PacketPtr emplace(Frame&& frame, sim::Time created, std::uint64_t id,
                                  telemetry::TraceId trace) {
    void* block = pool_->acquire();
    Packet* packet = nullptr;
    try {
      packet = ::new (block) Packet(std::forward<Frame>(frame), created, id, trace);
    } catch (...) {
      pool_->release(block);
      throw;
    }
    packet->pool_ = pool_;
    return PacketPtr{packet};
  }

  std::uint64_t next_id_ = 1;
  detail::BlockPool* pool_ = new detail::BlockPool;
};

}  // namespace tsn::net
