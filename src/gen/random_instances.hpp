// Random set-system generators for the benchmark harness.
//
// Three families match the structural assumptions of the paper's refined
// bounds:
//  * random_instance      — uniform size k, binomial loads (Theorem 5);
//  * fixed_load_instance  — uniform load σ, varying sizes (Theorem 6);
//  * regular_instance     — uniform size AND load (Corollary 7);
// plus a variable-capacity variant for Theorem 4.
//
// Draw order is part of each generator's contract: the same Rng state
// gives the same instance word for word, and every committed artifact
// depends on it (test_gen's GeneratorOutput fingerprints pin it).  The
// random family draws each set's weight, then its k distinct slots, then
// one capacity per used slot in slot order.  A distinct draw rejects
// repeats against a stamp per value while k·3 < n, and otherwise takes the
// first k of a shuffled [0, n).  The random family writes its parent rows
// straight into one CsrArray: a count per slot sizes the rows, and a
// scatter in ascending set id fills each row already sorted, so the work
// is O(1) per membership.  The other families build through
// InstanceBuilder.
#pragma once

#include <cstddef>

#include "core/instance.hpp"
#include "util/rng.hpp"

namespace osp {

/// How set weights are drawn.
struct WeightModel {
  enum class Kind { kUnit, kUniform, kZipf, kExponential };
  Kind kind = Kind::kUnit;
  double lo = 1.0;      // kUniform: lower bound
  double hi = 10.0;     // kUniform: upper bound
  double zipf_s = 1.2;  // kZipf: exponent (weight of rank r ∝ r^-s)
  double rate = 1.0;    // kExponential: rate (weights are 1 + Exp(rate))

  static WeightModel unit() { return {}; }
  static WeightModel uniform(double lo, double hi) {
    return {Kind::kUniform, lo, hi, 1.2, 1.0};
  }
  static WeightModel zipf(double s) { return {Kind::kZipf, 1, 10, s, 1.0}; }
  static WeightModel exponential(double rate) {
    return {Kind::kExponential, 1, 10, 1.2, rate};
  }
};

/// Draws a weight for the set of rank `rank` (used by the Zipf model).
Weight draw_weight(const WeightModel& model, std::size_t rank, Rng& rng);

/// m sets of size exactly k over n element slots: each set picks k distinct
/// slots uniformly.  Slots that no set picked are dropped, so the returned
/// instance may have fewer than n elements.  Unit capacities.
Instance random_instance(std::size_t m, std::size_t n, std::size_t k,
                         const WeightModel& weights, Rng& rng);

/// Same layout but each element draws its capacity uniformly from
/// [1, cap_max]; used for the Theorem 4 experiments.
Instance random_capacity_instance(std::size_t m, std::size_t n, std::size_t k,
                                  std::size_t cap_max,
                                  const WeightModel& weights, Rng& rng);

/// n elements of load exactly σ over m sets; set sizes vary (binomial-ish).
/// The first ceil(m/σ) elements deterministically cover every set so no
/// set is empty.  Requires σ <= m and n·σ >= m.  Unit capacities.
Instance fixed_load_instance(std::size_t m, std::size_t n, std::size_t sigma,
                             const WeightModel& weights, Rng& rng);

/// Bi-regular system: every set has size exactly k and every element load
/// exactly σ, built with the configuration model plus repair passes.
/// Requires m·k divisible by σ; produces n = m·k/σ elements.
/// Unit capacities.  Throws RequireError if repair fails to converge
/// (pathological parameters, e.g. σ > m).
Instance regular_instance(std::size_t m, std::size_t k, std::size_t sigma,
                          const WeightModel& weights, Rng& rng);

}  // namespace osp
