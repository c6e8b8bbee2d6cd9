// Deterministic pseudo-random number generation for rrsched.
//
// All randomness in workload generation, experiments, and property tests
// flows through Rng (xoshiro256** seeded via SplitMix64), so every run is
// reproducible from a 64-bit seed. Rng satisfies the C++ UniformRandomBitGenerator
// requirements and can therefore be used with <random> distributions, but the
// distributions needed by the workload generators (uniform, Bernoulli,
// Poisson, exponential, Zipf, geometric) are provided here directly with
// stable cross-platform behavior (std:: distributions are not guaranteed to
// produce identical streams across standard libraries).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace rrs {

// SplitMix64: used to expand a single 64-bit seed into the xoshiro state.
// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
// generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// xoshiro256**: fast, high-quality 64-bit generator (Blackman & Vigna).
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x5eed5eed5eedULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  // Raw 64 random bits.
  uint64_t Next();
  result_type operator()() { return Next(); }

  // Uniform integer in [0, bound), bound > 0. Uses Lemire's nearly-divisionless
  // rejection method for unbiased results.
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double UniformDouble();

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Poisson-distributed count with the given mean (>= 0). Uses Knuth's
  // product method for small means and PTRS-like normal approximation with
  // rejection fallback for large means; exact enough for workload synthesis.
  uint64_t Poisson(double mean);

  // Knuth's product method given limit = exp(-mean) for 0 < mean < 30: the
  // exact draws Poisson(mean) makes, for per-round loops that hoist the
  // exponential out.
  uint64_t PoissonProduct(double limit);

  // Exponential with the given rate (> 0).
  double Exponential(double rate);

  // Geometric number of failures before first success, success prob p in (0,1].
  uint64_t Geometric(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Derives an independent child generator; useful for giving each parallel
  // sweep task its own deterministic stream.
  Rng Fork();

  // Raw generator state, for checkpoint/restore (snapshot/codec.h). A
  // restored Rng continues the exact stream of the saved one, so a restored
  // tenant replays the identical arrival future.
  std::array<uint64_t, 4> SaveState() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void LoadState(const std::array<uint64_t, 4>& s) {
    s_[0] = s[0];
    s_[1] = s[1];
    s_[2] = s[2];
    s_[3] = s[3];
  }

 private:
  uint64_t s_[4];
};

// Zipf(s, n) sampler over {0, 1, ..., n-1} with exponent s >= 0 (s = 0 is
// uniform). Precomputes the CDF once; sampling is O(log n) via binary search.
// Used to model skewed color popularity in synthetic workloads.
class ZipfDistribution {
 public:
  ZipfDistribution(size_t n, double exponent);

  size_t Sample(Rng& rng) const;
  size_t size() const { return cdf_.size(); }
  double exponent() const { return exponent_; }

  // Probability mass of rank i (for tests).
  double Pmf(size_t i) const;

 private:
  std::vector<double> cdf_;
  double exponent_;
};

}  // namespace rrs
