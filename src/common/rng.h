// Deterministic, fast random number generation for the simulator.
//
// The whole reproduction depends on run-to-run determinism (DESIGN.md §6.4),
// so we do not use std::random_device or any global engine. Every component
// that needs randomness owns an Rng seeded from the experiment seed; forked
// streams (fork()) are independent so adding a consumer does not perturb the
// draws seen by existing consumers.
//
// Engine: xoshiro256** (Blackman & Vigna), seeded via SplitMix64 — the
// standard recommendation for seeding xoshiro from a single 64-bit value.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace conscale {

namespace detail {

/// SplitMix64: used only to expand a 64-bit seed into xoshiro state.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace detail

/// xoshiro256** PRNG with distribution helpers used by the workload and
/// service-time models. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9d2c5680u) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = detail::splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = detail::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = detail::rotl(state_[3], 45);
    return result;
  }

  /// Independent child stream. Drawing from the child does not advance the
  /// parent beyond the single draw used to derive the child's seed.
  Rng fork() { return Rng(next() ^ 0xa02bdbf7bb3c0a7ULL); }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double mantissa.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    // Lemire's unbiased bounded generation (rejection variant kept simple).
    __uint128_t m = static_cast<__uint128_t>(next()) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0ULL - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential with the given mean (= 1/rate). mean <= 0 returns 0.
  double exponential(double mean) {
    if (mean <= 0.0) return 0.0;
    double u = uniform();
    // Guard against log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /// Standard normal via Box-Muller (cached second value).
  double normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    double u1 = uniform();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
  }

  /// Normal with mean/stddev.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Log-normal parameterized by the mean and coefficient of variation of the
  /// *resulting* distribution (convenient for service-time models).
  double lognormal_mean_cv(double mean, double cv) {
    if (mean <= 0.0) return 0.0;
    if (cv <= 0.0) return mean;
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(mean) - 0.5 * sigma2;
    return std::exp(normal(mu, std::sqrt(sigma2)));
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace conscale
