// Cluster management for trading networks (§5, Cluster Management).
//
// The paper asks for automated provisioning, placement and scaling that
// optimizes latency above other criteria while respecting bandwidth and
// application constraints (a strategy must reach the normalized feeds it
// subscribes to). This module implements the L1S subscription-cap solver
// (§4.3): given a per-server NIC budget, decide which feeds each strategy
// takes on dedicated NICs and which must share a merged circuit.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace tsn::cluster {

enum class JobKind : std::uint8_t { kNormalizer, kStrategy, kGateway };

using JobId = std::uint32_t;

struct Job {
  JobId id = 0;
  JobKind kind = JobKind::kStrategy;
  // Normalized partitions this job consumes (strategies) or produces
  // (normalizers).
  std::vector<std::uint32_t> partitions;
};

// How one strategy's subscriptions map onto its NICs in the L1S design.
struct SubscriptionPlan {
  JobId strategy = 0;
  std::vector<std::uint32_t> dedicated;  // one NIC each
  std::vector<std::uint32_t> merged;     // share the final NIC via a mux
};

class ClusterManager {
 public:
  void add_job(const Job& job);

  // L1S subscription capping: each strategy may use at most
  // `max_feed_nics` market-data NICs. The most active partitions (by the
  // given activity weights) get dedicated NICs; the rest merge onto the
  // last NIC. Fewer NICs -> wider merges -> more burst contention (§4.3).
  [[nodiscard]] std::vector<SubscriptionPlan> plan_l1s_subscriptions(
      std::uint32_t max_feed_nics,
      const std::unordered_map<std::uint32_t, double>& partition_weight) const;

 private:
  std::vector<Job> jobs_;
};

}  // namespace tsn::cluster
