#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/error.h"

namespace chronos {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
  }
}

double Rng::uniform(double lo, double hi) {
  CHRONOS_EXPECTS(lo <= hi, "uniform range must satisfy lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CHRONOS_EXPECTS(lo <= hi, "uniform_int range must satisfy lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t v = (*this)();
  while (v >= limit) {
    v = (*this)();
  }
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::exponential(double rate) {
  CHRONOS_EXPECTS(rate > 0.0, "exponential rate must be positive");
  return -std::log(uniform_complement()) / rate;
}

double Rng::normal() {
  // Box–Muller; discard the second variate to keep the stream stateless.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::pareto(double t_min, double beta) {
  CHRONOS_EXPECTS(t_min > 0.0, "pareto t_min must be positive");
  CHRONOS_EXPECTS(beta > 0.0, "pareto beta must be positive");
  return t_min * std::pow(uniform_complement(), -1.0 / beta);
}

bool Rng::bernoulli(double p) {
  CHRONOS_EXPECTS(p >= 0.0 && p <= 1.0, "bernoulli p must lie in [0, 1]");
  return uniform() < p;
}

Rng Rng::split() {
  // Derive a fresh seed from the current stream; splitmix64 reseeding gives
  // decorrelated state words.
  return Rng(split_seed());
}

std::uint64_t Rng::split_seed() { return (*this)(); }

ParetoSampler::ParetoSampler(double t_min, double beta)
    : t_min_(t_min), neg_inv_beta_(-1.0 / beta) {
  CHRONOS_EXPECTS(t_min > 0.0, "pareto t_min must be positive");
  CHRONOS_EXPECTS(beta > 0.0, "pareto beta must be positive");
}

ExponentialSampler::ExponentialSampler(double rate) : rate_(rate) {
  CHRONOS_EXPECTS(rate > 0.0, "exponential rate must be positive");
}

}  // namespace chronos
