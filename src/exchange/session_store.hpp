// Pooled, sharded session/order/journal state for a million-session
// exchange front end (ROADMAP item 2).
//
// PR 5 kept one heap object per session (journal vector, per-session
// unordered maps); fine for a handful of resilient sessions, hopeless for
// the 10^5–10^6 concurrent gateway sessions the paper's Design 2/3 fan-in
// assumes. This store rewrites that state as slab-allocated, cache-line-
// aligned SoA columns — the same recipe as `book/order_book.*`:
//
//   session slab   external id | token | tx_seq | conn | logged-in |
//                  order chain head/count | journal chain head/tail/count |
//                  shard | prev | next
//   order slab     client id | exchange id | session | symbol | prev | next
//   journal slab   seq | offset | length | next        (+ one shared byte arena)
//
// Session and journal rows are append-only: the exchange never tears a
// session down (ids are resumable forever), so a row belongs to its
// session for the store's lifetime. Order rows recycle through a freelist.
//
// One `book::FlatIndex` directory maps session ids to rows. Session ids
// also hash to one of S shards, each keeping an intrusive bind-ordered list
// of its *connected* sessions, so liveness / cancel-on-disconnect sweeps
// touch O(shard), never O(population).
//
// Journaling is batched: `journal_stage` appends a sequenced message's
// bytes to a shared staging ring; `journal_flush` commits the whole ring —
// one arena append plus chain links — so the per-message journal cost
// amortizes across every session that sent in the same instant (the
// exchange schedules one flush per instant, like its feed flush). Replay
// walks a session's record chain and hands back the original bytes
// verbatim, preserving PR 5's byte-identical exactly-once replay contract.
//
// Client-order-id state (the dedupe set plus the open-order lookup) is one
// global `FlatIndex` keyed by (session slot, client id): a live entry holds
// the order slot, a terminal entry a closed marker that keeps rejecting
// duplicate ids forever. A second `FlatIndex` maps live exchange order ids
// to order rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "book/flat_index.hpp"
#include "proto/types.hpp"

namespace tsn::exchange {

using book::Column;
using book::FlatIndex;

struct SessionStoreConfig {
  // Sweep shard count; rounded up to a power of two.
  std::uint32_t shards = 1;
};

enum class LoginVerdict : std::uint8_t {
  kNew,    // first login for this session id: a row was created
  kMatch,  // existing row, token matches (resume/takeover decided by caller)
  kInUse,  // existing row, wrong token: the kSessionInUse reject
};

enum class OrderVerdict : std::uint8_t {
  kAccepted,
  kDuplicateClientId,  // the id was used before, live or terminal
};

// Client-index key: (session slot, client order id). Packed to 12 bytes
// (natural alignment pads it to 16) because the client index is the
// store's largest table: 4M slots at 100k sessions, where each byte per
// slot is 4 MiB.
#pragma pack(push, 4)
struct ClientKey {
  proto::OrderId client_id = 0;
  std::uint32_t slot = 0;

  bool operator==(const ClientKey&) const = default;
};
#pragma pack(pop)

// Avalanche the client id BEFORE folding in the slot: clients commonly
// derive ids from their session number (e.g. session<<32 | seq), and slots
// are handed out in login order, so a plain xor of the raw parts cancels to
// a handful of distinct pre-mix keys across the whole population — every
// session then probes the same chain. mix64 is bijective, so mixing first
// keeps distinct ids distinct no matter how structured they are.
struct ClientKeyHash {
  [[nodiscard]] constexpr std::size_t operator()(const ClientKey& key) const noexcept {
    return static_cast<std::size_t>(
        book::mix64(book::mix64(key.client_id) + key.slot * 0x9e3779b97f4a7c15ULL));
  }
};

struct SessionStoreStats {
  std::uint64_t journal_appends = 0;
  std::uint64_t journal_flushes = 0;
  std::uint64_t journal_bytes = 0;
};

class SessionStore {
 public:
  static constexpr std::uint32_t kNullSlot = 0xffffffffu;

  explicit SessionStore(SessionStoreConfig config = {});

  // Pre-sizes every slab, index, the staging ring and the journal arena so
  // the first `sessions` sessions with `orders` concurrently open orders
  // and `journal_bytes` of journaled traffic never grow mid-update.
  void reserve(std::size_t sessions, std::size_t orders, std::size_t journal_bytes);

  // --- directory -------------------------------------------------------
  [[nodiscard]] std::uint32_t lookup(std::uint32_t session_id) const noexcept;

  struct LoginResult {
    std::uint32_t slot = kNullSlot;  // kNullSlot only for kInUse
    LoginVerdict verdict = LoginVerdict::kNew;
  };
  // Resolves a login: creates the row on first sight, verifies the token
  // otherwise. On kInUse nothing changes and slot is kNullSlot.
  LoginResult login(std::uint32_t session_id, std::uint64_t token);

  // Attaches a live connection (joining the shard's connected list at the
  // tail) / detaches it. Rebinding an already-bound session moves it to
  // the tail, which is exactly the order a fresh TCP connection would give.
  void bind(std::uint32_t slot, std::uint32_t conn) noexcept;
  void unbind(std::uint32_t slot) noexcept;

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] std::uint32_t shard_of(std::uint32_t session_id) const noexcept {
    return static_cast<std::uint32_t>(mix32(session_id) & shard_mask_);
  }
  // Visits the shard's connected sessions in bind order. `fn(slot)` may not
  // bind/unbind (the sweep caller collects first, then acts).
  template <typename Fn>
  void for_each_connected(std::uint32_t shard, Fn&& fn) const {
    for (std::uint32_t s = shards_[shard].head; s != kNullSlot; s = sess_next_[s]) fn(s);
  }

  // --- session row accessors -------------------------------------------
  [[nodiscard]] std::uint32_t session_id(std::uint32_t slot) const noexcept {
    return sess_external_[slot];
  }
  [[nodiscard]] std::uint32_t conn(std::uint32_t slot) const noexcept { return sess_conn_[slot]; }
  [[nodiscard]] bool logged_in(std::uint32_t slot) const noexcept {
    return sess_logged_in_[slot] != 0;
  }
  void set_logged_in(std::uint32_t slot, bool logged_in) noexcept {
    sess_logged_in_[slot] = logged_in ? 1 : 0;
  }
  // Consumes and returns the next sequenced-application sequence number.
  [[nodiscard]] std::uint32_t next_seq(std::uint32_t slot) noexcept {
    return sess_tx_seq_[slot]++;
  }
  [[nodiscard]] std::uint32_t tx_seq(std::uint32_t slot) const noexcept {
    return sess_tx_seq_[slot];
  }
  // Sessions ever created; their rows are slots 0 .. session_count() - 1.
  [[nodiscard]] std::size_t session_count() const noexcept { return sess_count_; }

  // Order-independent? No — deliberately order-DEPENDENT: a 64-bit FNV-1a
  // fold over every session row in slot order (external id, token, tx_seq,
  // logged-in, open orders, journal entries). Two stores that processed
  // the same admitted input sequence hold the same rows in the same slots,
  // so primary and backup digests are equal at every replication sequence
  // point; any divergence — a lost login, a skipped order, a stray ack —
  // shifts the fold. Connection indexes are excluded (the backup has no TCP
  // legs).
  [[nodiscard]] std::uint64_t state_digest() const noexcept;

  // --- shared journal ---------------------------------------------------
  // Stages one sequenced message for the session. Bytes are copied into the
  // staging ring; the chain/arena commit happens at the next flush. Entries
  // for one session must be staged in ascending seq order (the exchange's
  // tx_seq counter guarantees this).
  void journal_stage(std::uint32_t slot, std::uint32_t seq, std::span<const std::byte> bytes);
  // Group commit: appends the staging ring to the arena and links every
  // staged record into its session's chain, in staging order.
  void journal_flush();
  // Replays entries with seq > last_seen in append order: fn(seq, bytes).
  // Flushes first, so same-instant sends are visible.
  template <typename Fn>
  void replay(std::uint32_t slot, std::uint32_t last_seen, Fn&& fn) {
    if (!staged_.empty()) journal_flush();
    for (std::uint32_t r = sess_jr_head_[slot]; r != kNullSlot; r = jr_next_[r]) {
      if (jr_seq_[r] > last_seen) {
        fn(jr_seq_[r], std::span<const std::byte>{arena_.data() + jr_off_[r], jr_len_[r]});
      }
    }
  }

  // --- open orders / client-id dedupe ----------------------------------
  // Registers an accepted order under the session. kDuplicateClientId if
  // the client id was ever used by this session (live OR terminal) — the
  // idempotent-resubmission contract.
  OrderVerdict register_order(std::uint32_t slot, proto::OrderId client_id,
                              proto::OrderId exchange_id, std::uint16_t symbol_idx);
  [[nodiscard]] bool client_id_used(std::uint32_t slot, proto::OrderId client_id) const noexcept;
  // Order slot if the client id maps to a live order of the session.
  [[nodiscard]] std::uint32_t find_open(std::uint32_t slot,
                                        proto::OrderId client_id) const noexcept;
  // Order slot for a live exchange order id (any session).
  [[nodiscard]] std::uint32_t find_by_exchange(proto::OrderId exchange_id) const noexcept;
  // Terminal transition: frees the order row and the exchange-id entry but
  // keeps the client-id mark so duplicates stay rejected.
  void close_order(std::uint32_t order_slot);

  [[nodiscard]] proto::OrderId order_client_id(std::uint32_t order_slot) const noexcept {
    return ord_client_[order_slot];
  }
  [[nodiscard]] proto::OrderId order_exchange_id(std::uint32_t order_slot) const noexcept {
    return ord_exch_[order_slot];
  }
  [[nodiscard]] std::uint32_t order_session(std::uint32_t order_slot) const noexcept {
    return ord_session_[order_slot];
  }
  [[nodiscard]] std::uint16_t order_symbol(std::uint32_t order_slot) const noexcept {
    return ord_symbol_[order_slot];
  }
  [[nodiscard]] std::uint32_t open_order_count(std::uint32_t slot) const noexcept {
    return sess_order_count_[slot];
  }
  [[nodiscard]] std::size_t open_orders_total() const noexcept { return exch_index_.size(); }
  // Fills `out` (cleared first) with the session's open client order ids,
  // sorted ascending — the deterministic cancel-on-disconnect sweep order.
  void collect_open_client_ids(std::uint32_t slot, std::vector<proto::OrderId>& out) const;

  [[nodiscard]] const SessionStoreStats& stats() const noexcept { return stats_; }

 private:
  // Client-index value for a terminal order: the id stays used forever.
  static constexpr std::uint32_t kClosedOrder = 0xfffffffeu;

  // 32-bit avalanche (Murmur3 finalizer): the shard choice, which decides
  // the heartbeat tick that sweeps a session.
  [[nodiscard]] static std::uint32_t mix32(std::uint32_t x) noexcept {
    x ^= x >> 16;
    x *= 0x85ebca6bu;
    x ^= x >> 13;
    x *= 0xc2b2ae35u;
    x ^= x >> 16;
    return x;
  }

  // Intrusive bind-ordered list of one shard's connected sessions.
  struct Shard {
    std::uint32_t head = kNullSlot;
    std::uint32_t tail = kNullSlot;
  };

  struct Staged {
    std::uint32_t slot = 0;
    std::uint32_t seq = 0;
    std::uint64_t off = 0;  // offset into staging_bytes_
    std::uint32_t len = 0;
  };

  std::uint32_t alloc_session();
  std::uint32_t alloc_order();
  std::uint32_t alloc_record();
  void grow_sessions(std::size_t new_capacity);
  void grow_orders(std::size_t new_capacity);
  void grow_records(std::size_t new_capacity);

  void unlink_order(std::uint32_t order_slot) noexcept;

  std::uint32_t shard_mask_ = 0;
  std::vector<Shard> shards_;

  // Session slab (parallel columns; slot = row).
  Column<std::uint32_t> sess_external_;
  Column<std::uint64_t> sess_token_;
  Column<std::uint32_t> sess_tx_seq_;
  Column<std::uint32_t> sess_conn_;
  Column<std::uint8_t> sess_logged_in_;
  Column<std::uint32_t> sess_order_head_;
  Column<std::uint32_t> sess_order_count_;
  Column<std::uint32_t> sess_jr_head_;
  Column<std::uint32_t> sess_jr_tail_;
  Column<std::uint32_t> sess_jr_count_;
  Column<std::uint32_t> sess_shard_;
  Column<std::uint32_t> sess_prev_;  // connected-list links
  Column<std::uint32_t> sess_next_;
  std::uint32_t sess_count_ = 0;  // rows handed out

  // Order slab.
  Column<proto::OrderId> ord_client_;
  Column<proto::OrderId> ord_exch_;
  Column<std::uint32_t> ord_session_;
  Column<std::uint16_t> ord_symbol_;
  Column<std::uint32_t> ord_prev_;
  Column<std::uint32_t> ord_next_;  // session chain / freelist link
  std::uint32_t free_ord_ = kNullSlot;

  // Journal record slab + shared byte arena + staging ring.
  Column<std::uint32_t> jr_seq_;
  Column<std::uint64_t> jr_off_;
  Column<std::uint32_t> jr_len_;
  Column<std::uint32_t> jr_next_;
  std::uint32_t jr_count_ = 0;  // rows handed out
  std::vector<std::byte> arena_;
  std::vector<Staged> staged_;
  std::vector<std::byte> staging_bytes_;

  FlatIndex<std::uint32_t, std::uint32_t> directory_;  // session id -> session slot
  FlatIndex<proto::OrderId, std::uint32_t> exch_index_;  // live exchange id -> order slot
  // (session slot, client id) -> live order slot or kClosedOrder. Never
  // erased: the dedupe contract keeps every used id.
  FlatIndex<ClientKey, std::uint32_t, ClientKeyHash> client_index_;

  SessionStoreStats stats_;
};

}  // namespace tsn::exchange
