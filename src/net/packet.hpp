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
// itself, and `PacketFactory` recycles the shared_ptr control block + Packet
// allocation through a freelist (`detail::BlockPool`). Once the pool is
// warm, a make → fan-out → drop cycle performs zero heap allocations; only
// MTU-scale frames (PITCH unit batches) fall back to heap payload storage.
// Recycling is reference-safe by construction: a block returns to the
// freelist only when the last PacketPtr (and weak ref) drops, so a recycled
// frame can never alias through a still-held pointer.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
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

using PacketPtr = std::shared_ptr<const Packet>;

namespace detail {

// Freelist of fixed-size blocks backing pooled shared_ptr allocations. The
// block size is pinned by the first allocation (the allocate_shared
// control-block-plus-Packet node); other sizes fall through to the global
// allocator untracked. Single-threaded by design, like the simulator.
class BlockPool {
 public:
  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  ~BlockPool() {
    for (void* block : free_) ::operator delete(block);
  }

  // tsn-lint: hotpath
  [[nodiscard]] void* allocate(std::size_t bytes) {
    if (block_size_ == 0) block_size_ = bytes;
    if (bytes != block_size_) {
      ++fallback_allocations_;
      // tsn-lint: allow(hotpath-alloc) off-size fallback: MTU-scale frames only, counted
      return ::operator new(bytes);
    }
    if (!free_.empty()) {
      void* block = free_.back();
      free_.pop_back();
      ++reused_;
      return block;
    }
    ++allocated_;
    // tsn-lint: allow(hotpath-alloc) cold-start growth: never taken once the pool is warm
    return ::operator new(bytes);
  }

  // tsn-lint: hotpath
  void deallocate(void* block, std::size_t bytes) noexcept {
    if (bytes != block_size_) {
      // tsn-lint: allow(hotpath-alloc) off-size fallback release, pairs with the fallback new
      ::operator delete(block);
      return;
    }
    // push_back cannot allocate here: capacity was reserved to cover every
    // block this pool has ever handed out.
    free_.push_back(block);
  }

  // Called after each fresh allocation to keep the freelist pre-sized.
  void reserve_freelist() { free_.reserve(allocated_); }

  [[nodiscard]] std::uint64_t blocks_allocated() const noexcept { return allocated_; }
  [[nodiscard]] std::uint64_t blocks_reused() const noexcept { return reused_; }

 private:
  std::vector<void*> free_;
  std::size_t block_size_ = 0;
  std::uint64_t allocated_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t fallback_allocations_ = 0;
};

// Minimal allocator over a shared BlockPool. Copies (including the one the
// shared_ptr control block keeps) share the pool and keep it alive, so
// blocks released after the factory is gone still return safely.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  explicit PoolAllocator(std::shared_ptr<BlockPool> pool) noexcept : pool_(std::move(pool)) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) noexcept : pool_(other.pool_) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "pooled blocks are max_align_t-aligned");
    T* p = static_cast<T*>(pool_->allocate(n * sizeof(T)));
    pool_->reserve_freelist();
    return p;
  }
  void deallocate(T* p, std::size_t n) noexcept { pool_->deallocate(p, n * sizeof(T)); }

  template <typename U>
  [[nodiscard]] bool operator==(const PoolAllocator<U>& other) const noexcept {
    return pool_ == other.pool_;
  }

 private:
  template <typename U>
  friend class PoolAllocator;
  std::shared_ptr<BlockPool> pool_;
};

}  // namespace detail

// Process-wide monotonic packet ids; simulation determinism does not depend
// on ids, only uniqueness within a run. Packets are carved out of a
// per-factory freelist pool; see the file header for the recycling contract.
class PacketFactory {
 public:
  // New frames are stamped with the ambient trace id, so a packet sent from
  // inside a TraceScope joins that scope's trace with no per-call plumbing.
  // tsn-lint: hotpath
  [[nodiscard]] PacketPtr make(std::vector<std::byte> frame, sim::Time created) {
    return std::allocate_shared<Packet>(alloc(), std::move(frame), created, next_id_++,
                                        telemetry::current_trace());
  }
  // tsn-lint: hotpath
  [[nodiscard]] PacketPtr make(std::span<const std::byte> frame, sim::Time created) {
    return std::allocate_shared<Packet>(alloc(), frame, created, next_id_++,
                                        telemetry::current_trace());
  }

  // Rewritten copy of an existing frame (e.g. a switch's last-hop MAC
  // rewrite): keeps the original id/timestamp/trace — it is the same frame
  // on the wire.
  // tsn-lint: hotpath
  [[nodiscard]] PacketPtr remake(std::span<const std::byte> frame, sim::Time created,
                                 std::uint64_t id, telemetry::TraceId trace) {
    return std::allocate_shared<Packet>(alloc(), frame, created, id, trace);
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
  [[nodiscard]] detail::PoolAllocator<Packet> alloc() const noexcept {
    return detail::PoolAllocator<Packet>{pool_};
  }

  std::uint64_t next_id_ = 1;
  std::shared_ptr<detail::BlockPool> pool_ = std::make_shared<detail::BlockPool>();
};

}  // namespace tsn::net
