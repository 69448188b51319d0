// Sharded, parallel discrete-event engine under conservative lookahead
// synchronization.
//
// The simulation is partitioned into `Domain`s (one per topology region /
// matching-engine partition). Each domain owns an independent event queue
// and clock; cross-domain effects travel exclusively through `post_to`
// mailboxes whose delivery times are bounded below by the minimum
// cross-domain link propagation delay — the classic conservative-lookahead
// argument (Miles & Cliff's planetary-scale exchange simulator distributes
// sims exactly this way): if every cross-shard message arrives at least
// `lookahead` after it is sent, then all events strictly before
// `min_next_event + lookahead` are causally independent across shards and
// may run in parallel.
//
// Two synchronization modes:
//
//   kGolden    Single-threaded merged execution: one shared sequence
//              counter, events popped in global (time, seq) order across
//              all domains. Byte-identical — event order, telemetry JSON,
//              feed bytes — to running the same topology on a plain
//              `Engine`. This is the reference mode.
//
//   kWindowed  Lookahead windows on threads with fixed domains. Each round
//              the coordinator (the calling thread) computes
//                window_end = min(T_min + lookahead, deadline)
//              (T_min = earliest pending event anywhere) and hands it to the
//              helpers with one counter bump. Thread t of T runs domains
//              t, t + T, ... (the coordinator is thread 0) up to
//              `at < window_end`, then the coordinator drains mailboxes in
//              a deterministic order (send time, source domain, per-source
//              index) so results are identical for any worker count and
//              across repeat runs.
//
// kAuto picks kGolden when num_workers <= 1, else kWindowed. End-state
// digests (book state, positions, metrics counters) of a windowed run match
// the golden run; the event *interleaving* (and therefore e.g. trace-span
// ordering across domains) may differ between modes, which is why digests —
// not byte streams — are the cross-mode contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/domain.hpp"
#include "sim/time.hpp"

namespace tsn::sim {

enum class SyncMode : std::uint8_t {
  kAuto,      // golden when num_workers <= 1, windowed otherwise
  kGolden,    // merged single-threaded reference execution
  kWindowed,  // parallel lookahead windows
};

struct ShardedConfig {
  std::uint32_t domains = 1;
  // Helper threads for windowed mode. 1 keeps everything on the calling
  // thread (still windowed execution if mode forces it). Above 1 the
  // calling thread runs domain 0 beside min(num_workers, domains - 1,
  // hardware_concurrency - 1) helpers: none without a domain, none spare.
  std::uint32_t num_workers = 1;
  SyncMode mode = SyncMode::kAuto;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedConfig config);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

  [[nodiscard]] Domain& domain(DomainId id) noexcept { return *domains_[id]; }
  [[nodiscard]] std::size_t domain_count() const noexcept { return domains_.size(); }

  // Registers a cross-domain delivery latency (e.g. a bridge link's
  // propagation delay). The lookahead window is the minimum of all
  // registered delays; every post_to must honor it.
  void note_cross_domain_delay(Duration delay);

  // True when this engine executes in golden (merged reference) mode.
  [[nodiscard]] bool golden() const noexcept { return golden_; }
  // Helper threads started (on the first windowed run); at most domains - 1.
  [[nodiscard]] std::size_t helper_threads() const noexcept { return helpers_.size(); }

  // Runs events with time <= deadline on every shard, then advances every
  // shard's clock to exactly `deadline`. Returns total events fired.
  std::uint64_t run_until(Time deadline);

  // Runs until every queue (and mailbox) drains. Returns events fired.
  std::uint64_t run();

  // Pre-warms every shard's pool and heap for `events_per_domain`.
  void reserve(std::size_t events_per_domain);

  [[nodiscard]] std::uint64_t events_fired() const noexcept;
  [[nodiscard]] std::size_t pending_events() const noexcept;
  // Earliest shard clock (== the deadline between runs).
  [[nodiscard]] Time now() const noexcept;

 private:
  friend class Domain;

  // One cross-domain message, parked in a per-(src, dst) mailbox until the
  // end-of-round drain. `sent`/`idx` give mailbox draining a total order that
  // does not depend on worker scheduling.
  struct Post {
    Time at;
    Time sent;
    std::uint64_t idx = 0;
    InlineAction action;
  };

  // Sorting view over parked posts during a drain (coordinator-only
  // scratch, reused across windows).
  struct PostRef {
    Time sent;
    DomainId src = 0;
    std::uint64_t idx = 0;
    Post* post = nullptr;
  };

  void post(DomainId src, DomainId dst, Time at, InlineAction action);

  std::uint64_t run_golden(Time deadline);
  std::uint64_t run_windowed(Time deadline);
  // Delivers parked posts into their destination queues in deterministic
  // order. Runs on the coordinator thread between windows.
  void drain_mailboxes(Time window_end);
  // Runs thread `thread`'s fixed share of domains: thread, thread + T, ...
  void run_owned(std::uint32_t thread, Time window_end);
  void helper_loop(std::uint32_t thread);

  [[nodiscard]] std::vector<Post>& mailbox(DomainId src, DomainId dst) noexcept {
    return mailboxes_[static_cast<std::size_t>(src) * domains_.size() + dst];
  }

  ShardedConfig config_;
  bool golden_ = true;
  // The lookahead window: the minimum cross-domain propagation delay
  // note_cross_domain_delay() has seen. Left at max() (no cross-domain
  // traffic), domains free-run to the deadline.
  Duration lookahead_ = Duration::max();
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<std::vector<Post>> mailboxes_;  // [src * n + dst]
  std::vector<PostRef> scratch_refs_;
  std::uint64_t shared_seq_ = 1;  // golden mode: one counter across shards

  // Windowed-mode helpers (started lazily). The coordinator publishes
  // window_end_ and its drained queues by bumping round_; each helper
  // publishes its domains by bumping done_. Those two edges order all
  // access to domain and mailbox state between the threads.
  std::uint32_t threads_ = 1;  // helpers + the coordinator
  Time window_end_ = Time::zero();
  std::atomic<bool> shutdown_{false};
  alignas(64) std::atomic<std::uint32_t> round_{0};
  alignas(64) std::atomic<std::uint32_t> done_{0};
  std::vector<std::thread> helpers_;
};

}  // namespace tsn::sim
