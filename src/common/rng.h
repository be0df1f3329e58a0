// Deterministic pseudo-random number generation for simulations.
//
// A self-contained xoshiro256++ generator is used instead of std::mt19937 so
// that streams are (a) fast, (b) reproducible across standard libraries, and
// (c) cheaply splittable into independent sub-streams (one per node / job),
// which discrete-event simulations need to keep runs comparable when the
// event interleaving changes.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace chronos {

/// xoshiro256++ PRNG (Blackman & Vigna). Satisfies
/// std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit output.
  std::uint64_t operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() {
    // Top 53 bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential variate with the given rate (mean 1/rate). Requires rate > 0.
  double exponential(double rate);

  /// Standard normal variate (Box–Muller, one value per call).
  double normal();

  /// Pareto(t_min, beta) variate via inverse CDF. Requires t_min > 0, beta > 0.
  double pareto(double t_min, double beta);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Returns a generator seeded from this stream, statistically independent
  /// for simulation purposes (long jump-free split via fresh splitmix chain).
  Rng split();

  /// Seed for a child generator, equivalent to the seed split() would use.
  /// Lets callers derive reproducible per-worker seed tables up front (the
  /// sweep engine assigns one seed per cell replication this way, so results
  /// are identical for any thread count).
  std::uint64_t split_seed();

 private:
  friend class ParetoSampler;
  friend class ExponentialSampler;

  /// Uniform in (0, 1]; the complement of uniform(), shared by the
  /// inverse-CDF samplers so their streams match the Rng::* methods bit for
  /// bit. Logs and negative powers of it stay finite.
  double uniform_complement() { return 1.0 - uniform(); }

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

/// Pre-validated Pareto(t_min, beta) sampler for hot loops.
///
/// `Rng::pareto` re-validates its parameters and re-derives the exponent
/// -1/beta on every draw; constructing a `ParetoSampler` once outside the
/// loop pays both costs a single time. Draws consume exactly one uniform and
/// are bit-identical to `rng.pareto(t_min, beta)` for the same stream
/// position, so call sites can be ported without disturbing seeded results.
class ParetoSampler {
 public:
  /// Requires t_min > 0 and beta > 0 (checked once, here).
  ParetoSampler(double t_min, double beta);

  /// One Pareto(t_min, beta) variate via inverse CDF.
  double operator()(Rng& rng) const {
    return t_min_ * std::pow(rng.uniform_complement(), neg_inv_beta_);
  }

 private:
  double t_min_;
  double neg_inv_beta_;  ///< -1/beta, derived once at construction
};

/// Pre-validated exponential sampler (mean 1/rate); the analogue of
/// `ParetoSampler` for `Rng::exponential`. Bit-identical to
/// `rng.exponential(rate)` at the same stream position.
class ExponentialSampler {
 public:
  /// Requires rate > 0 (checked once, here).
  explicit ExponentialSampler(double rate);

  double operator()(Rng& rng) const {
    return -std::log(rng.uniform_complement()) / rate_;
  }

 private:
  double rate_;
};

}  // namespace chronos
