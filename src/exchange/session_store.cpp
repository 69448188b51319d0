#include "exchange/session_store.hpp"

#include <algorithm>
#include <bit>

#include "core/check.hpp"

namespace tsn::exchange {

SessionStore::SessionStore(SessionStoreConfig config) {
  const std::size_t shard_count = std::bit_ceil(std::max<std::uint32_t>(1, config.shards));
  shards_.resize(shard_count);
  shard_mask_ = static_cast<std::uint32_t>(shard_count - 1);
}

void SessionStore::reserve(std::size_t sessions, std::size_t orders, std::size_t journal_bytes) {
  if (sessions > sess_external_.size()) grow_sessions(std::bit_ceil(sessions));
  if (orders > ord_client_.size()) grow_orders(std::bit_ceil(orders));
  // One journal record per staged message; size the record slab for the
  // arena byte budget assuming small (header-ish) messages.
  const std::size_t records = std::max<std::size_t>(sessions, journal_bytes / 16);
  if (records > jr_seq_.size()) grow_records(std::bit_ceil(records));
  directory_.reserve(sessions);
  exch_index_.reserve(orders);
  // The client index keeps one entry per client id *ever used*; give it the
  // same budget as the journal-record slab so warm churn stays rehash-free.
  client_index_.reserve(std::max(orders, records / 4));
  arena_.reserve(journal_bytes);
  staging_bytes_.reserve(std::max<std::size_t>(4096, journal_bytes / 8));
  staged_.reserve(std::max<std::size_t>(256, sessions));
}

// --- slabs ---------------------------------------------------------------

void SessionStore::grow_sessions(std::size_t new_capacity) {
  TSN_ASSERT(new_capacity > sess_external_.size(), "index grow overflow");
  sess_external_.resize(new_capacity);
  sess_token_.resize(new_capacity);
  sess_tx_seq_.resize(new_capacity);
  sess_conn_.resize(new_capacity);
  sess_logged_in_.resize(new_capacity);
  sess_order_head_.resize(new_capacity);
  sess_order_count_.resize(new_capacity);
  sess_jr_head_.resize(new_capacity);
  sess_jr_tail_.resize(new_capacity);
  sess_jr_count_.resize(new_capacity);
  sess_shard_.resize(new_capacity);
  sess_prev_.resize(new_capacity);
  sess_next_.resize(new_capacity);
}

void SessionStore::grow_orders(std::size_t new_capacity) {
  const std::size_t old = ord_client_.size();
  TSN_ASSERT(new_capacity > old, "index grow overflow");
  ord_client_.resize(new_capacity);
  ord_exch_.resize(new_capacity);
  ord_session_.resize(new_capacity);
  ord_symbol_.resize(new_capacity);
  ord_prev_.resize(new_capacity);
  ord_next_.resize(new_capacity);
  // New rows join the freelist in descending order so allocation hands out
  // ascending slots — keeps slot order deterministic and cache-friendly.
  for (std::size_t i = new_capacity; i > old; --i) {
    const auto slot = static_cast<std::uint32_t>(i - 1);
    ord_next_[slot] = free_ord_;
    free_ord_ = slot;
  }
}

void SessionStore::grow_records(std::size_t new_capacity) {
  TSN_ASSERT(new_capacity > jr_seq_.size(), "index grow overflow");
  jr_seq_.resize(new_capacity);
  jr_off_.resize(new_capacity);
  jr_len_.resize(new_capacity);
  jr_next_.resize(new_capacity);
}

// Session rows are handed out in ascending slot order and never freed.
std::uint32_t SessionStore::alloc_session() {
  if (sess_count_ == sess_external_.size()) {
    grow_sessions(std::max<std::size_t>(16, sess_external_.size() * 2));
  }
  return sess_count_++;
}

std::uint32_t SessionStore::alloc_order() {
  if (free_ord_ == kNullSlot) {
    grow_orders(std::max<std::size_t>(16, ord_client_.size() * 2));
  }
  const std::uint32_t slot = free_ord_;
  free_ord_ = ord_next_[slot];
  return slot;
}

// Journal records, like session rows, are never freed.
std::uint32_t SessionStore::alloc_record() {
  if (jr_count_ == jr_seq_.size()) {
    grow_records(std::max<std::size_t>(64, jr_seq_.size() * 2));
  }
  return jr_count_++;
}

// --- directory API --------------------------------------------------------

// tsn-lint: hotpath
std::uint32_t SessionStore::lookup(std::uint32_t session_id) const noexcept {
  const std::uint32_t* slot = directory_.find(session_id);
  return slot != nullptr ? *slot : kNullSlot;
}

SessionStore::LoginResult SessionStore::login(std::uint32_t session_id, std::uint64_t token) {
  const std::uint32_t existing = lookup(session_id);
  if (existing != kNullSlot) {
    if (sess_token_[existing] != token) return {kNullSlot, LoginVerdict::kInUse};
    return {existing, LoginVerdict::kMatch};
  }
  const std::uint32_t slot = alloc_session();
  sess_external_[slot] = session_id;
  sess_token_[slot] = token;
  sess_tx_seq_[slot] = 1;
  sess_conn_[slot] = kNullSlot;
  sess_logged_in_[slot] = 0;
  sess_order_head_[slot] = kNullSlot;
  sess_order_count_[slot] = 0;
  sess_jr_head_[slot] = kNullSlot;
  sess_jr_tail_[slot] = kNullSlot;
  sess_jr_count_[slot] = 0;
  sess_shard_[slot] = shard_of(session_id);
  sess_prev_[slot] = kNullSlot;
  sess_next_[slot] = kNullSlot;
  directory_.insert(session_id, slot);
  return {slot, LoginVerdict::kNew};
}

// tsn-lint: hotpath
void SessionStore::bind(std::uint32_t slot, std::uint32_t conn) noexcept {
  if (sess_conn_[slot] != kNullSlot) unbind(slot);
  sess_conn_[slot] = conn;
  Shard& shard = shards_[sess_shard_[slot]];
  sess_prev_[slot] = shard.tail;
  sess_next_[slot] = kNullSlot;
  if (shard.tail != kNullSlot) {
    sess_next_[shard.tail] = slot;
  } else {
    shard.head = slot;
  }
  shard.tail = slot;
}

// tsn-lint: hotpath
void SessionStore::unbind(std::uint32_t slot) noexcept {
  if (sess_conn_[slot] == kNullSlot) return;
  sess_conn_[slot] = kNullSlot;
  Shard& shard = shards_[sess_shard_[slot]];
  const std::uint32_t prev = sess_prev_[slot];
  const std::uint32_t next = sess_next_[slot];
  if (prev != kNullSlot) {
    sess_next_[prev] = next;
  } else {
    shard.head = next;
  }
  if (next != kNullSlot) {
    sess_prev_[next] = prev;
  } else {
    shard.tail = prev;
  }
  sess_prev_[slot] = kNullSlot;
  sess_next_[slot] = kNullSlot;
}

// --- journal ---------------------------------------------------------------

// tsn-lint: hotpath
void SessionStore::journal_stage(std::uint32_t slot, std::uint32_t seq,
                                 std::span<const std::byte> bytes) {
  Staged entry;
  entry.slot = slot;
  entry.seq = seq;
  entry.off = staging_bytes_.size();
  entry.len = static_cast<std::uint32_t>(bytes.size());
  staging_bytes_.insert(staging_bytes_.end(), bytes.begin(), bytes.end());
  staged_.push_back(entry);
  ++sess_jr_count_[slot];
}

// tsn-lint: hotpath
void SessionStore::journal_flush() {
  if (staged_.empty()) return;
  const std::size_t base = arena_.size();
  arena_.insert(arena_.end(), staging_bytes_.begin(), staging_bytes_.end());
  for (const Staged& entry : staged_) {
    const std::uint32_t rec = alloc_record();
    jr_seq_[rec] = entry.seq;
    jr_off_[rec] = base + entry.off;
    jr_len_[rec] = entry.len;
    jr_next_[rec] = kNullSlot;
    if (sess_jr_tail_[entry.slot] != kNullSlot) {
      jr_next_[sess_jr_tail_[entry.slot]] = rec;
    } else {
      sess_jr_head_[entry.slot] = rec;
    }
    sess_jr_tail_[entry.slot] = rec;
    ++stats_.journal_appends;
  }
  stats_.journal_bytes += staging_bytes_.size();
  ++stats_.journal_flushes;
  staged_.clear();
  staging_bytes_.clear();
}

// --- orders ----------------------------------------------------------------

// tsn-lint: hotpath
OrderVerdict SessionStore::register_order(std::uint32_t slot, proto::OrderId client_id,
                                          proto::OrderId exchange_id, std::uint16_t symbol_idx) {
  const ClientKey key{client_id, slot};
  if (client_index_.find(key) != nullptr) return OrderVerdict::kDuplicateClientId;
  const std::uint32_t order = alloc_order();
  ord_client_[order] = client_id;
  ord_exch_[order] = exchange_id;
  ord_session_[order] = slot;
  ord_symbol_[order] = symbol_idx;
  ord_prev_[order] = kNullSlot;
  ord_next_[order] = sess_order_head_[slot];
  if (sess_order_head_[slot] != kNullSlot) ord_prev_[sess_order_head_[slot]] = order;
  sess_order_head_[slot] = order;
  ++sess_order_count_[slot];
  client_index_.insert(key, order);
  exch_index_.insert(exchange_id, order);
  return OrderVerdict::kAccepted;
}

// tsn-lint: hotpath
bool SessionStore::client_id_used(std::uint32_t slot, proto::OrderId client_id) const noexcept {
  return client_index_.find(ClientKey{client_id, slot}) != nullptr;
}

// tsn-lint: hotpath
std::uint32_t SessionStore::find_open(std::uint32_t slot, proto::OrderId client_id) const noexcept {
  const std::uint32_t* order = client_index_.find(ClientKey{client_id, slot});
  return order == nullptr || *order == kClosedOrder ? kNullSlot : *order;
}

// tsn-lint: hotpath
std::uint32_t SessionStore::find_by_exchange(proto::OrderId exchange_id) const noexcept {
  const std::uint32_t* order = exch_index_.find(exchange_id);
  return order != nullptr ? *order : kNullSlot;
}

// tsn-lint: hotpath
void SessionStore::unlink_order(std::uint32_t order_slot) noexcept {
  const std::uint32_t prev = ord_prev_[order_slot];
  const std::uint32_t next = ord_next_[order_slot];
  if (prev != kNullSlot) {
    ord_next_[prev] = next;
  } else {
    sess_order_head_[ord_session_[order_slot]] = next;
  }
  if (next != kNullSlot) ord_prev_[next] = prev;
  --sess_order_count_[ord_session_[order_slot]];
}

// tsn-lint: hotpath
void SessionStore::close_order(std::uint32_t order_slot) {
  std::uint32_t* mark =
      client_index_.find(ClientKey{ord_client_[order_slot], ord_session_[order_slot]});
  TSN_DCHECK(mark != nullptr, "an open order keeps its client-index entry");
  *mark = kClosedOrder;
  exch_index_.erase(ord_exch_[order_slot]);
  unlink_order(order_slot);
  ord_next_[order_slot] = free_ord_;
  free_ord_ = order_slot;
}

void SessionStore::collect_open_client_ids(std::uint32_t slot,
                                           std::vector<proto::OrderId>& out) const {
  out.clear();
  for (std::uint32_t order = sess_order_head_[slot]; order != kNullSlot;
       order = ord_next_[order]) {
    out.push_back(ord_client_[order]);
  }
  std::sort(out.begin(), out.end());
}

std::uint64_t SessionStore::state_digest() const noexcept {
  book::Fnv1a digest;
  digest.mix(sess_count_);
  for (std::uint32_t slot = 0; slot < sess_count_; ++slot) {
    digest.mix(sess_external_[slot]);
    digest.mix(sess_token_[slot]);
    digest.mix(sess_tx_seq_[slot]);
    digest.mix(sess_logged_in_[slot]);
    digest.mix(sess_order_count_[slot]);
    digest.mix(sess_jr_count_[slot]);
  }
  return digest.hash;
}

}  // namespace tsn::exchange
