#include "exchange/failover.hpp"

#include <utility>

namespace tsn::exchange {

const char* to_string(FailoverState state) noexcept {
  switch (state) {
    case FailoverState::kFollowing: return "following";
    case FailoverState::kSuspect: return "suspect";
    case FailoverState::kPromoting: return "promoting";
    case FailoverState::kActive: return "active";
  }
  return "?";
}

FailoverController::FailoverController(sim::Scheduler& engine, Exchange& backup,
                                       ReplicaApplier& applier)
    : engine_(engine), backup_(backup), applier_(applier) {}

void FailoverController::start() {
  last_heartbeat_seen_ = applier_.last_heartbeat_at();
  engine_.schedule_in(kFailoverPollInterval, [this] { tick(); });
}

void FailoverController::tick() {
  const sim::Time now = engine_.now();
  const sim::Time beat = applier_.last_heartbeat_at();
  const sim::Duration silence = now - beat;
  switch (state_) {
    case FailoverState::kFollowing:
      last_heartbeat_seen_ = beat;
      if (silence > kSuspectAfter) {
        state_ = FailoverState::kSuspect;
        suspected_at_ = now;
        ++stats_.suspects;
      }
      break;
    case FailoverState::kSuspect:
      if (beat > last_heartbeat_seen_) {
        // The primary spoke again: stand down. Transient stalls (a lost
        // heartbeat, a congested bridge) must never promote — that way
        // lies two live books.
        state_ = FailoverState::kFollowing;
        last_heartbeat_seen_ = beat;
        ++stats_.false_suspects;
      } else if (now - suspected_at_ > kPromoteAfter) {
        state_ = FailoverState::kPromoting;
        promote_started_ = now;
        // Epoch bump first: from this instant our status datagrams fence
        // any stale primary that resurfaces, and its late records are
        // dropped as stale-epoch rather than applied to a live book.
        applier_.begin_promotion();
      }
      break;
    case FailoverState::kPromoting:
      if (now - promote_started_ > kPromoteReplay) {
        // Journal tail drained (in-flight records landed during the replay
        // window). Open for business.
        backup_.set_feed_muted(false);
        backup_.set_accepting(true);
        state_ = FailoverState::kActive;
        recovery_ = now - last_heartbeat_seen_;
        ++stats_.promotions;
      }
      break;
    case FailoverState::kActive:
      return;  // terminal: stop the poll chain
  }
  engine_.schedule_in(kFailoverPollInterval, [this] { tick(); });
}

void FailoverController::register_metrics(telemetry::Registry& registry,
                                          const std::string& prefix) const {
  registry.gauge(prefix + ".state",
                 [this] { return static_cast<double>(static_cast<std::uint8_t>(state_)); });
  registry.gauge(prefix + ".suspects", [this] { return static_cast<double>(stats_.suspects); });
  registry.gauge(prefix + ".false_suspects",
                 [this] { return static_cast<double>(stats_.false_suspects); });
  registry.gauge(prefix + ".promotions", [this] { return static_cast<double>(stats_.promotions); });
  registry.gauge(prefix + ".recovery_ms", [this] { return recovery_.millis(); });
}

}  // namespace tsn::exchange
