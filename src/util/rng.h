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
//
// The per-draw hot path (Next, UniformDouble, Bernoulli, PoissonProduct)
// is defined inline here, so the streaming generators' window loops
// (workload/source.h) compile to straight-line code. The arithmetic is
// frozen: every workload, golden digest and checkpoint depends on these
// exact streams, and stream_pin_test pins them value for value.
#pragma once

#include <array>
#include <cmath>
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
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  result_type operator()() { return Next(); }

  // Uniform integer in [0, bound), bound > 0. Uses Lemire's nearly-divisionless
  // rejection method for unbiased results.
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1): 53 random bits.
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0) return false;
    if (p >= 1) return true;
    return UniformDouble() < p;
  }

  // Poisson-distributed count with the given mean (>= 0). Uses Knuth's
  // product method for means below kProductMeanLimit and splits larger
  // means in half recursively (a sum of independent Poisson draws).
  uint64_t Poisson(double mean);

  static constexpr double kProductMeanLimit = 30;

  // Knuth's product method given limit = exp(-mean) for 0 < mean <
  // kProductMeanLimit: the exact draws Poisson(mean) makes, for per-round
  // loops that hoist the exponential out (see PoissonSampler).
  uint64_t PoissonProduct(double limit) {
    return PoissonProduct(limit, FirstFactorMax(limit));
  }

  // PoissonProduct(limit) given first_max = FirstFactorMax(limit). The
  // first factor is U = m·2^-53 for m = Next() >> 11, and U > limit
  // exactly when m > floor(limit·2^53), both sides being exact, so the
  // first test (which ends most low-rate draws) runs on the integer.
  uint64_t PoissonProduct(double limit, uint64_t first_max) {
    const uint64_t m = Next() >> 11;
    if (m <= first_max) return 0;
    double prod = static_cast<double>(m) * 0x1.0p-53;
    uint64_t count = 0;
    do {
      prod *= UniformDouble();
      ++count;
    } while (prod > limit);
    return count;
  }

  // floor(limit·2^53): the largest m = Next() >> 11 whose factor ends
  // PoissonProduct(limit) at once.
  static uint64_t FirstFactorMax(double limit) {
    return static_cast<uint64_t>(limit * 0x1.0p53);
  }

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
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

// Rng::Poisson(mean) with exp(-mean) computed once: Draw makes exactly the
// draws rng.Poisson(mean) would and returns the same count, for generators
// that sample one fixed mean every round.
class PoissonSampler {
 public:
  explicit PoissonSampler(double mean)
      : mean_(mean),
        limit_(mean > 0 && mean < Rng::kProductMeanLimit ? std::exp(-mean)
                                                         : 0),
        first_max_(Rng::FirstFactorMax(limit_)) {}

  uint64_t Draw(Rng& rng) const {
    if (limit_ > 0) return rng.PoissonProduct(limit_, first_max_);
    // The out-of-line path runs on a copy: taking `rng`'s address here
    // would pin a caller's loop-local Rng to the stack on every draw.
    Rng split = rng;
    const uint64_t count = split.Poisson(mean_);
    rng = split;
    return count;
  }

 private:
  double mean_;
  double limit_;        // exp(-mean_), or 0 where Poisson takes another path
  uint64_t first_max_;  // Rng::FirstFactorMax(limit_)
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
