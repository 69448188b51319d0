// Scripted fault injection for failure drills.
// tsn-lint: allow(unreached-module) the failure drills are its only users; it models no paper figure
//
// The paper's central argument (§4) is that trading networks are engineered
// around *failure*, not the happy path: merged feeds drop under bursts,
// microwave links fade in rain, and mroute-table exhaustion black-holes
// subscribers. `FaultInjector` turns those failure modes into scripted,
// deterministic events on the simulation clock: link flaps (admin down/up),
// transient loss-rate steps, switch egress-port stalls, mroute evictions,
// session kills and storms, process crashes and partitions, all addressed
// to devices by name. A drill's faults are a plan of `FaultEvent`s, and
// every event that fires is recorded in the same form, in an in-order log
// that exports as deterministic JSON. So one run's log is the next run's
// plan: a failing drill's log is its own reproducer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "l2/commodity_switch.hpp"
#include "net/device.hpp"
#include "net/link.hpp"
#include "sim/scheduler.hpp"
#include "telemetry/metrics.hpp"

namespace tsn::fault {

enum class FaultKind : std::uint8_t {
  kLinkDown,
  kLinkUp,
  kLossSet,    // loss override raised to `value`
  kLossClear,  // loss override removed (back to configured loss)
  kPortStall,  // switch egress port held for `value` nanoseconds
  kMrouteEvict,
  kSessionKill,   // registered session killer invoked (order-entry uplink death)
  kSessionStorm,  // registered storm callback dropped `value` sessions at once
  kProcessCrash,    // registered process crash invoked (whole-box death, kernel FINs)
  kLinkPartition,   // both directions of a cable admin-toggled (1=partition, 0=heal)
};

inline constexpr std::size_t kFaultKindCount = 10;

[[nodiscard]] std::string_view fault_kind_name(FaultKind kind) noexcept;

// One fault: an entry of a drill's plan, and the log's record of it firing.
// Targets name what was registered, in the words the log prints:
//   link_down, link_up, loss_set, loss_clear  a link or switch name
//   port_stall                                "<switch>:port<N>"
//   mroute_evict                              "<switch>:<a.b.c.d>"
//   session_kill, session_storm, process_crash  the registered name
//   link_partition                            "<link a>|<link b>"
struct FaultEvent {
  sim::Time at;
  FaultKind kind = FaultKind::kLinkDown;
  std::string target;
  // loss_set: the loss probability. port_stall: the stall in ns.
  // session_storm: sessions to drop (logged: sessions dropped).
  // link_partition: nonzero partitions both directions, 0 heals them.
  double value = 0.0;
};

struct InjectorStats {
  std::uint64_t faults_scheduled = 0;
  std::uint64_t faults_fired = 0;
};

// Schedules faults against registered targets. Targets are registered once
// at topology-build time and addressed by name afterwards; scheduling
// against an unknown name throws, so drill scripts fail loudly instead of
// silently testing nothing. The injector borrows the targets — they must
// outlive it.
class FaultInjector {
 public:
  explicit FaultInjector(sim::Scheduler& engine) noexcept : engine_(engine) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- target registry ------------------------------------------------
  void register_link(net::Link& link);
  // Registers the switch's FaultHook plus its stall/mroute surfaces.
  void register_switch(l2::CommoditySwitch& sw);
  // Registers a session-level kill switch (e.g. Gateway::kill_upstream):
  // invoking it must drop the session's transport immediately. Session
  // faults model order-entry path death (§2) rather than link loss.
  void register_session(std::string name, std::function<void()> kill);
  // Registers a whole-process crash switch (e.g. Exchange::crash): invoking
  // it must stop the process cold — no further sends, no further event
  // handling — while the host kernel keeps FIN/RST-ing new connections, the
  // way a dead matching engine looks from the outside.
  void register_process(std::string name, std::function<void()> crash);
  // Registers a correlated-reconnect storm target: `storm(count)` drops up
  // to `count` live sessions in one instant and returns how many it got
  // (e.g. exchange::LoadGen::storm — a rack switch reboot seen from the
  // exchange floor).
  void register_storm(std::string name, std::function<std::uint32_t(std::uint32_t)> storm);

  // --- fault scheduling -----------------------------------------------
  // Resolves the event's target now (an unknown target, or one of the wrong
  // type, throws std::invalid_argument) and fires the fault at `event.at`,
  // an absolute simulation time; a time already past fires on the next
  // engine step. Events at one instant fire in the order they were
  // scheduled. The log then records the event's kind, target and value.
  void schedule(const FaultEvent& event);

  // --- observability ---------------------------------------------------
  [[nodiscard]] const std::vector<FaultEvent>& log() const noexcept { return log_; }
  [[nodiscard]] const InjectorStats& stats() const noexcept { return stats_; }

  // Deterministic JSON export of the fault log (events in firing order).
  [[nodiscard]] std::string log_json() const;

  // Gauges under `prefix`: scheduled/fired counts and per-kind totals.
  void register_metrics(telemetry::Registry& registry, const std::string& prefix) const;

 private:
  // The fault itself, run at fire time; returns the value to log.
  using Action = std::function<double()>;

  [[nodiscard]] Action resolve(const FaultEvent& event) const;
  [[nodiscard]] net::FaultHook& hook_for(const std::string& target) const;
  // Splits "<switch>:<rest>" at its last ':' and resolves the switch.
  [[nodiscard]] std::pair<l2::CommoditySwitch*, std::string_view> switch_port(
      const std::string& target) const;

  sim::Scheduler& engine_;
  // std::map: deterministic iteration should anyone ever walk the registry.
  std::map<std::string, net::FaultHook*> hooks_;
  std::map<std::string, l2::CommoditySwitch*> switches_;
  std::map<std::string, std::function<void()>> sessions_;
  std::map<std::string, std::function<std::uint32_t(std::uint32_t)>> storms_;
  std::map<std::string, std::function<void()>> processes_;
  std::vector<FaultEvent> log_;
  InjectorStats stats_;
  std::uint64_t kind_counts_[kFaultKindCount] = {};
};

}  // namespace tsn::fault
