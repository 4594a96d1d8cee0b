// Random number generation for the osp library.
//
// All randomized components take an explicit Rng so experiments are
// reproducible from a single seed.  Rng::split derives statistically
// independent child generators (e.g. one per trial of a benchmark) without
// the children sharing state with the parent.
#pragma once

#include <cstdint>
#include <optional>
#include <random>

namespace osp {

/// Deterministic pseudo-random generator with splittable seeding.
///
/// Wraps std::mt19937_64 and adds convenience draws used throughout the
/// library.  Copyable; copies evolve independently.
///
/// Stream definition: Rng(seed) yields exactly what std::mt19937_64 yields
/// after seeding with std::seed_seq{w0, w1, w2, w3}, where w0..w3 are the
/// first four splitmix64() outputs from state `seed`.  std::seed_seq keeps
/// only the low 32 bits of each word, so only those enter the stream.
///
/// The 2.5 KB engine state is expanded from the seed on the first draw
/// (any draw, split() or engine()), not at construction: building,
/// copying or moving an Rng that has not drawn yet does no seeding work,
/// and each such copy expands on its own first draw into the same stream.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds from a 64-bit value; equal seeds yield equal streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : seed_(seed) {}

  /// Derives an independent child generator.  Children obtained with
  /// distinct `stream` values (or from successive calls) do not correlate
  /// with each other or with the parent's future output.
  Rng split(std::uint64_t stream);

  /// Uniform integer in [0, bound).  Requires bound > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in (0, 1) — never returns exactly 0, safe for log().
  double uniform_open();

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Exponentially distributed draw with the given rate (> 0).
  double exponential(double rate);

  /// Standard-library compatibility: uniform 64-bit output.
  std::uint64_t operator()() { return engine()(); }
  static constexpr std::uint64_t min() { return std::mt19937_64::min(); }
  static constexpr std::uint64_t max() { return std::mt19937_64::max(); }

  /// Access to the underlying engine for std distributions; expands it
  /// first if this Rng has not drawn yet.
  std::mt19937_64& engine() { return engine_ ? *engine_ : expand(); }

 private:
  /// Seeds the engine from seed_ (see the stream definition above).
  std::mt19937_64& expand();

  std::uint64_t seed_;
  std::optional<std::mt19937_64> engine_;  // empty until the first draw
};

/// SplitMix64 step; used for seed derivation and in tests.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace osp
