#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/hash.h"

namespace trajkit {

namespace {

/// One splitmix64 step: advances the state by the golden-ratio increment
/// and returns the mixed new state, which is Mix64 of the old one.
uint64_t SplitMix64(uint64_t& x) {
  const uint64_t z = Mix64(x);
  x += 0x9E3779B97F4A7C15ULL;
  return z;
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Reseed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
  has_cached_gaussian_ = false;
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t n) {
  TRAJKIT_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  while (true) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % n;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  TRAJKIT_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

double Rng::Exponential(double mean) {
  TRAJKIT_CHECK_GT(mean, 0.0);
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

size_t Rng::SampleDiscrete(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    TRAJKIT_CHECK_GE(w, 0.0);
    total += w;
  }
  TRAJKIT_CHECK_GT(total, 0.0);
  double r = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;  // Guard against floating-point round-off.
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace trajkit
