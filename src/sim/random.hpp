// Deterministic pseudo-random number generation for the simulator.
//
// Simulation runs must be exactly reproducible given a seed, across
// platforms and standard-library versions, so we implement the generator
// (xoshiro256**) and all distributions ourselves rather than relying on
// <random>'s unspecified distribution algorithms.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace tsn::sim {

// xoshiro256** 1.0 by Blackman & Vigna, seeded via SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  // Uniform over the full 64-bit range.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  // Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  // avoid modulo bias.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept;

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  // Uniform in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  // Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  // True with probability p (clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  // Exponential with the given mean (>0).
  [[nodiscard]] double exponential(double mean) noexcept;

  // Standard normal via Box-Muller (no cached spare: keeps state minimal).
  [[nodiscard]] double normal() noexcept;
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  // Log-normal: exp(N(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  // Poisson with the given mean. Uses Knuth's method for small means and a
  // normal approximation for large ones (mean > 256).
  [[nodiscard]] std::uint64_t poisson(double mean) noexcept;

  // Pareto with scale xm > 0 and shape alpha > 0 (heavy-tailed bursts).
  [[nodiscard]] double pareto(double xm, double alpha) noexcept;

  // Zipf-like rank selection over n items with exponent s, 1-indexed rank in
  // [1, n]. Approximate inverse-CDF method; used for symbol popularity.
  [[nodiscard]] std::uint64_t zipf(std::uint64_t n, double s) noexcept;

  // Picks an index in [0, weights.size()) with probability proportional to
  // the weight. Weights must be non-negative with a positive sum.
  [[nodiscard]] std::size_t weighted_index(std::span<const double> weights) noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace tsn::sim
