#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace tsn::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng{7};
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng{11};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng{13};
  double sum = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100'000, 0.5, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng{17};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng{19};
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng{23};
  double sum = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.exponential(5.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 5.0, 0.1);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng{29};
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, PoissonSmallAndLargeMeans) {
  Rng rng{31};
  constexpr int kN = 50'000;
  for (double mean : {0.5, 4.0, 100.0, 1000.0}) {
    double sum = 0.0;
    for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / kN, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng rng{37};
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(Rng, ParetoRespectsScaleAndIsHeavyTailed) {
  Rng rng{41};
  double max_seen = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    const double x = rng.pareto(2.0, 2.5);
    EXPECT_GE(x, 2.0);
    max_seen = std::max(max_seen, x);
  }
  EXPECT_GT(max_seen, 10.0);  // heavy tail reaches far beyond the scale
}

TEST(Rng, ZipfFavorsLowRanks) {
  Rng rng{43};
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 100'000; ++i) {
    const auto rank = rng.zipf(100, 1.1);
    ASSERT_GE(rank, 1u);
    ASSERT_LE(rank, 100u);
    ++counts[rank];
  }
  EXPECT_GT(counts[1], counts[10] * 2);
  EXPECT_GT(counts[1], counts[50] * 5);
}

TEST(Rng, WeightedIndexMatchesWeights) {
  Rng rng{47};
  const std::vector<double> weights{1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 100'000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_NEAR(counts[0] / 100'000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 100'000.0, 0.3, 0.015);
  EXPECT_NEAR(counts[2] / 100'000.0, 0.6, 0.015);
}

TEST(Rng, WeightedIndexDegenerateCases) {
  Rng rng{53};
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_EQ(rng.weighted_index(zero), 0u);
  const std::vector<double> single{5.0};
  EXPECT_EQ(rng.weighted_index(single), 0u);
}

}  // namespace
}  // namespace tsn::sim
