#include "sim/random.hpp"

#include <cmath>
#include <numbers>

namespace tsn::sim {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // All-zero state is the one invalid state for xoshiro; seed guards it.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method with a rejection step.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) noexcept {
  double u = uniform();
  if (u >= 1.0) u = 0x1.fffffffffffffp-1;
  return -mean * std::log1p(-u);
}

double Rng::normal() noexcept {
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean > 256.0) {
    const double v = normal(mean, std::sqrt(mean));
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  double product = uniform();
  std::uint64_t count = 0;
  while (product > limit) {
    ++count;
    product *= uniform();
  }
  return count;
}

double Rng::pareto(double xm, double alpha) noexcept {
  double u = uniform();
  if (u >= 1.0) u = 0x1.fffffffffffffp-1;
  return xm / std::pow(1.0 - u, 1.0 / alpha);
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) noexcept {
  if (n <= 1) return 1;
  // Approximate inverse CDF of the continuous analogue; adequate for
  // popularity skews and O(1) per draw.
  const double u = uniform();
  if (s == 1.0) {
    const double h = std::log(static_cast<double>(n) + 1.0);
    auto rank = static_cast<std::uint64_t>(std::exp(u * h));
    return rank < 1 ? 1 : (rank > n ? n : rank);
  }
  const double one_minus_s = 1.0 - s;
  const double hn = (std::pow(static_cast<double>(n) + 1.0, one_minus_s) - 1.0) / one_minus_s;
  const double x = std::pow(u * hn * one_minus_s + 1.0, 1.0 / one_minus_s);
  auto rank = static_cast<std::uint64_t>(x);
  return rank < 1 ? 1 : (rank > n ? n : rank);
}

std::size_t Rng::weighted_index(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return 0;
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace tsn::sim
