#include "cluster/manager.hpp"

#include <gtest/gtest.h>

namespace tsn::cluster {
namespace {

TEST(Cluster, DuplicateIdsRejected) {
  ClusterManager mgr;
  mgr.add_job(Job{1, JobKind::kStrategy, {}});
  EXPECT_THROW(mgr.add_job(Job{1, JobKind::kGateway, {}}), std::invalid_argument);
}

TEST(Cluster, L1sSubscriptionPlanNoMergeWhenUnderCap) {
  ClusterManager mgr;
  mgr.add_job(Job{1, JobKind::kStrategy, {1, 2}});
  const auto plans = mgr.plan_l1s_subscriptions(3, {});
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_TRUE(plans[0].merged.empty());
  EXPECT_EQ(plans[0].dedicated.size(), 2u);
}

TEST(Cluster, L1sSubscriptionPlanMergesColdestFeeds) {
  // §4.3: restrict subscriptions per strategy; hottest partitions keep
  // dedicated NICs, the tail shares a merged circuit.
  ClusterManager mgr;
  mgr.add_job(Job{1, JobKind::kStrategy, {10, 11, 12, 13, 14}});
  std::unordered_map<std::uint32_t, double> weight{
      {10, 100.0}, {11, 90.0}, {12, 5.0}, {13, 4.0}, {14, 3.0}};
  const auto plans = mgr.plan_l1s_subscriptions(3, weight);
  ASSERT_EQ(plans.size(), 1u);
  const auto& plan = plans[0];
  ASSERT_EQ(plan.dedicated.size(), 2u);  // max_feed_nics - 1
  EXPECT_EQ(plan.dedicated[0], 10u);
  EXPECT_EQ(plan.dedicated[1], 11u);
  ASSERT_EQ(plan.merged.size(), 3u);
  EXPECT_EQ(plan.merged[0], 12u);
}

TEST(Cluster, L1sPlanRejectsZeroNics) {
  ClusterManager mgr;
  EXPECT_THROW((void)mgr.plan_l1s_subscriptions(0, {}), std::invalid_argument);
}

}  // namespace
}  // namespace tsn::cluster
