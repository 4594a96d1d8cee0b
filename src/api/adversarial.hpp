// Adversarial scenario cells + the offline-optimum denominator.
//
// The competitive-ratio dashboard (bench_adversarial → BENCH_adversarial.json)
// divides measured online benefit by an offline optimum.  This module is
// the one place that denominator is computed and cross-checked:
//
//  * build_adversarial_cell() compiles an adversarial/* ScenarioSpec into
//    its instance TOGETHER with the construction's planted witness
//    (σ^(k-1) for Theorem 3, the column witness of size t for the Section
//    4.2 warm-up, the ℓ³ planted solution for Lemma 9) and the paper's
//    bound-side value for the cell.  The witness is verified feasible and
//    its value verified equal to the documented bound before anything is
//    measured — a broken gadget fails loudly, not as a silently wrong
//    ratio.
//
//  * opt_denominator() upgrades the witness to the best denominator the
//    solvers can certify: exact branch & bound where m permits (opt_exact
//    = true), otherwise the witness value (opt_exact = false) with the LP
//    relaxation recorded as a certified upper bracket where the tableau
//    stays small enough.
#pragma once

#include <cstddef>
#include <vector>

#include "api/scenario.hpp"
#include "core/instance.hpp"
#include "util/rng.hpp"

namespace osp::api {

/// One adversarial grid cell: the instance plus its verified witness and
/// the paper's bound-side value.
struct AdversarialCell {
  Instance instance;
  std::vector<SetId> witness;  // feasible; value == witness_value (checked)
  double witness_value = 0;    // σ^(k-1) | t | ℓ³ per family
  double bound = 0;            // Thm3 σ^(k-1) | t/ln t | Thm2 expression
};

/// Compiles an adversarial spec (family kTheorem3, kWeakLb, or kLemma9)
/// into its cell, verifying the planted witness (is_feasible + value ==
/// the documented bound).  build_instance() returns this cell's instance
/// for the three families, so a grid cell and the dashboard draw the same
/// instance from an equal-state rng.  Throws RequireError for other
/// families or a broken witness.
AdversarialCell build_adversarial_cell(const ScenarioSpec& spec, Rng& rng);

/// The denominator of a measured competitive ratio.
struct OptDenominator {
  double opt = 0;        // exact optimum when opt_exact, else witness value
  bool opt_exact = false;
  double lp_upper = 0;   // LP relaxation value; 0 when not computed
};

/// Default ceiling on simplex rows (elements + sets) before lp_upper is
/// skipped: covers every theorem3 cell up to (sigma, k) = (4, 4) and the
/// warm-up gadget through t = 8 at single-digit milliseconds per solve.
constexpr std::size_t kDefaultLpRowLimit = 1100;

/// Computes the best certified denominator for `inst` given its verified
/// planted witness value: exact branch & bound for small set systems
/// (opt_exact = true, and opt >= witness is checked), the witness value
/// otherwise.  The LP upper bound is attached whenever the dense simplex
/// tableau has at most `lp_row_limit` rows — callers report it as the
/// certified bracket [opt, lp_upper] around the true optimum.  Pass a
/// smaller limit for families the dense simplex cannot solve (on the
/// Lemma 9 gadget past ell = 2 it reaches its pivot limit and throws a
/// one-line RequireError, see algos/simplex.hpp); any computed lp_upper
/// below the denominator throws.
OptDenominator opt_denominator(const Instance& inst, double witness_value,
                               std::size_t lp_row_limit = kDefaultLpRowLimit);

}  // namespace osp::api
