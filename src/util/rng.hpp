// Random number generation for the osp library.
//
// All randomized components take an explicit Rng so experiments are
// reproducible from a single seed.  Rng::split derives statistically
// independent child generators (e.g. one per trial of a benchmark) without
// the children sharing state with the parent.
#pragma once

#include <cstdint>
#include <utility>

namespace osp {

/// Deterministic pseudo-random generator with splittable seeding.
///
/// Stream definition: the engine is xoshiro256** (Blackman and Vigna) with
/// state {w0, w1, w2, w3}, the first four splitmix64() outputs from state
/// `seed`.  SplitMix64 maps four distinct states to four distinct outputs,
/// so the state is never all zero.  Every draw below is defined by this
/// library from that engine, not by a standard library, so a seed yields
/// the same values on every platform.  Copyable (32 bytes); copies evolve
/// independently.
class Rng {
 public:
  /// Largest mean poisson() accepts.
  static constexpr double kMaxPoissonMean = 1e6;

  /// Seeds from a 64-bit value; equal seeds yield equal streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Derives an independent child generator.  Children obtained with
  /// distinct `stream` values (or from successive calls) do not correlate
  /// with each other or with the parent's future output.
  Rng split(std::uint64_t stream);

  /// Next 64-bit engine output (xoshiro256**).
  std::uint64_t operator()() {
    const std::uint64_t out = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return out;
  }

  /// Uniform integer in [0, bound).  Requires bound > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1): the top 53 bits of one output times 2^-53.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1p-53; }

  /// Uniform double in (0, 1) — never returns exactly 0, safe for log().
  double uniform_open();

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Exponentially distributed draw with the given rate (> 0).
  double exponential(double rate);

  /// Poisson-distributed draw.  Requires a mean in [0, kMaxPoissonMean].
  std::uint64_t poisson(double mean);

  /// Uniformly random permutation of [first, last) (Fisher-Yates).
  template <class RandomIt>
  void shuffle(RandomIt first, RandomIt last) {
    for (auto i = last - first - 1; i > 0; --i) {
      using std::swap;
      swap(first[i], first[below(static_cast<std::uint64_t>(i) + 1)]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// SplitMix64 step; used for seed derivation and in tests.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace osp
