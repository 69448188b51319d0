// Heartbeat-driven failover state machine for the hot-standby pair.
//
// Polls the ReplicaApplier's heartbeat watermark and walks
//
//   kFollowing -> kSuspect -> kPromoting -> kActive
//
// with hysteresis: a heartbeat that resumes while merely *suspect* demotes
// back to kFollowing (counted as a false suspect) — a transient link stall
// must not split the brain. Once promotion starts it runs to completion:
// the applier bumps its epoch (fencing any stale primary on contact), the
// promote-replay window lets journaled in-flight records drain into the
// backup book, then the feed unmutes and the listener opens so re-homing
// gateways land on a book byte-identical to the primary's last acked state.
#pragma once

#include <cstdint>
#include <string>

#include "exchange/replica.hpp"

namespace tsn::exchange {

enum class FailoverState : std::uint8_t {
  kFollowing = 0,
  kSuspect = 1,
  kPromoting = 2,
  kActive = 3,
};

[[nodiscard]] const char* to_string(FailoverState state) noexcept;

// Detector poll cadence; well under kSuspectAfter for tight bounds.
inline constexpr sim::Duration kFailoverPollInterval = sim::micros(std::int64_t{200});
// Heartbeat silence before the primary is suspected (>= 2 intervals so a
// single lost heartbeat never trips it).
inline constexpr sim::Duration kSuspectAfter = sim::millis(std::int64_t{2});
// Additional silence, while suspect, before promotion begins.
inline constexpr sim::Duration kPromoteAfter = sim::millis(std::int64_t{1});
// Journal-tail drain: records already on the wire at promotion land
// during this window and are applied before the book goes live.
inline constexpr sim::Duration kPromoteReplay = sim::micros(std::int64_t{200});

struct FailoverStats {
  std::uint64_t suspects = 0;
  std::uint64_t false_suspects = 0;
  std::uint64_t promotions = 0;
};

class FailoverController {
 public:
  FailoverController(sim::Scheduler& engine, Exchange& backup, ReplicaApplier& applier);

  // Starts the poll chain. The applier must be start()ed first so its
  // heartbeat watermark is initialized.
  void start();

  [[nodiscard]] FailoverState state() const noexcept { return state_; }
  // Outage as the clients saw it: last heartbeat the detector trusted to
  // the instant the backup opened for business.
  [[nodiscard]] sim::Duration recovery_duration() const noexcept { return recovery_; }
  [[nodiscard]] const FailoverStats& stats() const noexcept { return stats_; }

  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const;

 private:
  void tick();

  sim::Scheduler& engine_;
  Exchange& backup_;
  ReplicaApplier& applier_;
  FailoverState state_ = FailoverState::kFollowing;
  sim::Time last_heartbeat_seen_;  // watermark backing recovery_duration()
  sim::Time suspected_at_;
  sim::Time promote_started_;
  sim::Duration recovery_ = sim::Duration::zero();
  FailoverStats stats_;
};

}  // namespace tsn::exchange
