#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <utility>

#include "core/check.hpp"

namespace tsn::sim {

namespace {

// Saturating `base + delta` so a max() lookahead (no cross-domain traffic)
// means "run everything up to the deadline in one window".
[[nodiscard]] Time saturating_add(Time base, Duration delta) noexcept {
  if (delta.picos() >= Time::max().picos() - base.picos()) return Time::max();
  return base + delta;
}

// Waits for `counter` to leave `seen` and returns its new value. A round
// lasts microseconds and parking costs a futex round trip per wake-up, so
// the waiter first polls, yielding between polls (DESIGN.md "Parallel
// simulation" says why it yields instead of spinning on x86 `pause`).
std::uint32_t await_change(const std::atomic<std::uint32_t>& counter, std::uint32_t seen) noexcept {
  for (int poll = 0; poll < 256; ++poll) {
    const std::uint32_t value = counter.load(std::memory_order_acquire);
    if (value != seen) return value;
    std::this_thread::yield();
  }
  counter.wait(seen, std::memory_order_acquire);
  return counter.load(std::memory_order_acquire);
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedConfig config) : config_(config) {
  TSN_ASSERT(config_.domains >= 1, "a sharded engine needs at least one domain");
  if (config_.num_workers == 0) config_.num_workers = 1;
  golden_ = config_.mode == SyncMode::kGolden ||
            (config_.mode == SyncMode::kAuto && config_.num_workers <= 1);
  if (!golden_ && config_.num_workers > 1) {
    const unsigned cores = std::thread::hardware_concurrency();  // 0 when unknown
    std::uint32_t helpers = std::min(config_.num_workers, config_.domains - 1);
    if (cores > 0) helpers = std::min(helpers, cores - 1);
    threads_ = helpers + 1;
  }
  domains_.reserve(config_.domains);
  for (std::uint32_t i = 0; i < config_.domains; ++i) {
    domains_.emplace_back(new Domain(*this, static_cast<DomainId>(i)));
  }
  mailboxes_.resize(static_cast<std::size_t>(config_.domains) * config_.domains);
  if (golden_) {
    // One shared tie-break counter makes the merged execution assign the
    // exact sequence numbers a plain Engine would — the byte-identity
    // contract of the golden reference.
    for (auto& d : domains_) d->seq_ = &shared_seq_;
  }
}

ShardedEngine::~ShardedEngine() {
  shutdown_.store(true, std::memory_order_relaxed);
  round_.fetch_add(1);
  round_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void ShardedEngine::note_cross_domain_delay(Duration delay) {
  TSN_ASSERT(delay > Duration::zero(),
             "zero-delay cross-domain links defeat conservative lookahead");
  lookahead_ = std::min(lookahead_, delay);
}

void ShardedEngine::reserve(std::size_t events_per_domain) {
  for (auto& d : domains_) d->reserve(events_per_domain);
}

std::uint64_t ShardedEngine::events_fired() const noexcept {
  std::uint64_t total = 0;
  for (const auto& d : domains_) total += d->fired_;
  return total;
}

Time ShardedEngine::now() const noexcept {
  Time earliest = Time::max();
  for (const auto& d : domains_) earliest = std::min(earliest, d->now_);
  return earliest;
}

void ShardedEngine::post(DomainId src, DomainId dst, Time at, InlineAction action) {
  TSN_ASSERT(dst < domains_.size(), "post_to an unknown domain");
  Domain& source = *domains_[src];
  TSN_DCHECK(lookahead_ == Duration::max() || at - source.now_ >= lookahead_,
             "post_to inside the lookahead window breaks conservative sync");
  if (golden_) {
    // Merged mode: deliver immediately, drawing from the shared counter at
    // the moment of the call — exactly when a plain Engine's schedule_at
    // would have assigned it.
    Domain& sink = *domains_[dst];
    if (at < sink.now_) at = sink.now_;
    sink.queue_.push(at, (*sink.seq_)++, std::move(action));
    return;
  }
  std::vector<Post>& box = mailbox(src, dst);
  box.push_back(Post{at, source.now_, box.size(), std::move(action)});
}

std::uint64_t ShardedEngine::run_until(Time deadline) {
  const std::uint64_t fired = golden_ ? run_golden(deadline) : run_windowed(deadline);
  for (auto& d : domains_) d->now_ = std::max(d->now_, deadline);
  return fired;
}

std::uint64_t ShardedEngine::run() {
  // No final clock advance: like Engine::run, the clocks rest on the last
  // event fired.
  return golden_ ? run_golden(Time::max()) : run_windowed(Time::max());
}

std::uint64_t ShardedEngine::run_golden(Time deadline) {
  std::uint64_t count = 0;
  for (;;) {
    // Global (time, seq) minimum across shards — the event a plain Engine's
    // heap would surface next.
    Domain* best = nullptr;
    const EventQueue::HeapEntry* best_entry = nullptr;
    for (auto& d : domains_) {
      const EventQueue::HeapEntry* entry = d->peek();
      if (entry == nullptr) continue;
      if (best_entry == nullptr || entry->at < best_entry->at ||
          (entry->at == best_entry->at && entry->seq < best_entry->seq)) {
        best_entry = entry;
        best = d.get();
      }
    }
    if (best_entry == nullptr || best_entry->at > deadline) break;
    best->pop_head();
    ++count;
  }
  return count;
}

std::uint64_t ShardedEngine::run_windowed(Time deadline) {
  // Helpers start on the first windowed run, not while a rig is built.
  for (auto t = static_cast<std::uint32_t>(helpers_.size()) + 1; t < threads_; ++t) {
    helpers_.emplace_back([this, t] { helper_loop(t); });
  }
  // Events *at* the deadline must run (run_until is inclusive), and windows
  // are exclusive at the top, so the horizon sits one tick past it.
  const Time horizon = saturating_add(deadline, Duration{1});
  const std::uint64_t fired_before = events_fired();
  for (;;) {
    Time t_min = Time::max();
    for (auto& d : domains_) {
      const EventQueue::HeapEntry* entry = d->peek();
      if (entry != nullptr) t_min = std::min(t_min, entry->at);
    }
    if (t_min == Time::max() || t_min > deadline) break;
    window_end_ = std::min(saturating_add(t_min, lookahead_), horizon);
    if (threads_ > 1) {
      done_.store(0, std::memory_order_relaxed);
      round_.fetch_add(1);  // publishes window_end_ and the drained queues
      round_.notify_all();
    }
    run_owned(0, window_end_);
    // The helpers' done_ bumps publish their domains' queues and mailboxes.
    for (std::uint32_t done = done_.load(std::memory_order_acquire); done != threads_ - 1;) {
      done = await_change(done_, done);
    }
    drain_mailboxes(window_end_);
  }
  return events_fired() - fired_before;
}

void ShardedEngine::run_owned(std::uint32_t thread, Time window_end) {
  for (std::size_t d = thread; d < domains_.size(); d += threads_) {
    domains_[d]->run_window(window_end);
  }
}

void ShardedEngine::drain_mailboxes(Time window_end) {
  // Deterministic delivery order — (send time, source domain, per-source
  // index) — so sequence-number assignment in the destination queues never
  // depends on worker scheduling. Same-instant cross-domain arrivals are
  // therefore ordered run-to-run identically for any worker count.
  for (DomainId dst = 0; dst < domains_.size(); ++dst) {
    scratch_refs_.clear();
    for (DomainId src = 0; src < domains_.size(); ++src) {
      for (Post& p : mailbox(src, dst)) scratch_refs_.push_back(PostRef{p.sent, src, p.idx, &p});
    }
    if (scratch_refs_.empty()) continue;
    std::sort(scratch_refs_.begin(), scratch_refs_.end(),
              [](const PostRef& a, const PostRef& b) {
                if (a.sent != b.sent) return a.sent < b.sent;
                if (a.src != b.src) return a.src < b.src;
                return a.idx < b.idx;
              });
    Domain& sink = *domains_[dst];
    for (const PostRef& r : scratch_refs_) {
      TSN_DCHECK(r.post->at >= window_end,
                 "cross-domain post lands inside the window it was sent from");
      sink.queue_.push(r.post->at, sink.own_seq_++, std::move(r.post->action));
    }
    for (DomainId src = 0; src < domains_.size(); ++src) mailbox(src, dst).clear();
  }
}

void ShardedEngine::helper_loop(std::uint32_t thread) {
  // Helpers start before the first round, so round_ is still 0 here. The
  // coordinator bumps it once per round and only after every helper has
  // reported, so each helper runs every round exactly once.
  for (std::uint32_t seen = 0;;) {
    seen = await_change(round_, seen);
    if (shutdown_.load(std::memory_order_relaxed)) return;
    run_owned(thread, window_end_);
    if (done_.fetch_add(1) + 1 == threads_ - 1) done_.notify_one();
  }
}

}  // namespace tsn::sim
