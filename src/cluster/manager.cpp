#include "cluster/manager.hpp"

#include <algorithm>
#include <stdexcept>

namespace tsn::cluster {

void ClusterManager::add_job(const Job& job) {
  for (const auto& existing : jobs_) {
    if (existing.id == job.id) throw std::invalid_argument{"duplicate job id"};
  }
  jobs_.push_back(job);
}

std::vector<SubscriptionPlan> ClusterManager::plan_l1s_subscriptions(
    std::uint32_t max_feed_nics,
    const std::unordered_map<std::uint32_t, double>& partition_weight) const {
  if (max_feed_nics == 0) throw std::invalid_argument{"need at least one feed NIC"};
  std::vector<SubscriptionPlan> plans;
  for (const auto& job : jobs_) {
    if (job.kind != JobKind::kStrategy) continue;
    SubscriptionPlan plan;
    plan.strategy = job.id;
    if (job.partitions.size() <= max_feed_nics) {
      plan.dedicated = job.partitions;
      plans.push_back(std::move(plan));
      continue;
    }
    // Busiest partitions get dedicated NICs — merging the hottest feeds is
    // what blows the merged link's budget during correlated bursts.
    std::vector<std::uint32_t> sorted = job.partitions;
    std::sort(sorted.begin(), sorted.end(), [&](std::uint32_t a, std::uint32_t b) {
      const auto wa = partition_weight.count(a) != 0 ? partition_weight.at(a) : 0.0;
      const auto wb = partition_weight.count(b) != 0 ? partition_weight.at(b) : 0.0;
      if (wa != wb) return wa > wb;
      return a < b;
    });
    // Reserve the last NIC for the merge.
    const std::size_t dedicated_count = max_feed_nics - 1;
    plan.dedicated.assign(sorted.begin(),
                          sorted.begin() + static_cast<std::ptrdiff_t>(dedicated_count));
    plan.merged.assign(sorted.begin() + static_cast<std::ptrdiff_t>(dedicated_count),
                       sorted.end());
    plans.push_back(std::move(plan));
  }
  return plans;
}

}  // namespace tsn::cluster
