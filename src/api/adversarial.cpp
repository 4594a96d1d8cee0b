#include "api/adversarial.hpp"

#include <cmath>

#include "algos/baselines.hpp"
#include "algos/offline.hpp"
#include "core/bounds.hpp"
#include "design/lower_bounds.hpp"
#include "util/require.hpp"

namespace osp::api {

namespace {

/// Branch & bound is run only when the set system is this small — every
/// cell at or under the cap solves in well under a second, so the
/// dashboard stays cheap to regenerate.
constexpr std::size_t kExactMaxSets = 32;

/// Total weight of a chosen collection.
double value_of(const Instance& inst, const std::vector<SetId>& chosen) {
  double v = 0;
  for (SetId s : chosen) v += static_cast<double>(inst.weight(s));
  return v;
}

/// Verifies the construction's planted witness before it becomes a ratio
/// denominator: feasible, and worth exactly what the paper says.
void check_witness(const ScenarioSpec& spec, const Instance& inst,
                   const std::vector<SetId>& witness, double documented) {
  OSP_REQUIRE_MSG(is_feasible(inst, witness),
                  "scenario '" << spec.name
                               << "': planted witness is not feasible");
  const double v = value_of(inst, witness);
  OSP_REQUIRE_MSG(v == documented,
                  "scenario '" << spec.name << "': planted witness is worth "
                               << v << ", documented bound is " << documented);
}

}  // namespace

AdversarialCell build_adversarial_cell(const ScenarioSpec& spec, Rng& rng) {
  AdversarialCell cell;
  switch (spec.family) {
    case ScenarioFamily::kTheorem3: {
      // The Theorem 3 adversary is adaptive: the instance depends on the
      // policy it plays against.  The cell pins the transcript to the
      // canonical greedy-first victim (fully deterministic, no rng
      // draws), so every policy of a grid replays the same oblivious
      // transcript and shard slices stay bit-identical.  The per-policy
      // adaptive runs live in bench_adversarial.
      GreedyFirst victim;
      AdaptiveAdversaryResult r =
          run_theorem3_adversary(victim, spec.sigma, spec.k);
      cell.instance = std::move(r.transcript);
      cell.witness = std::move(r.witness);
      cell.witness_value = theorem3_lower_bound(spec.sigma, spec.k);
      cell.bound = cell.witness_value;
      break;
    }
    case ScenarioFamily::kWeakLb: {
      WeakLbInstance wl = build_weak_lb_instance(spec.t, rng);
      cell.instance = std::move(wl.instance);
      cell.witness = std::move(wl.column_witness);
      cell.witness_value = static_cast<double>(spec.t);
      cell.bound = static_cast<double>(spec.t) /
                   std::log(static_cast<double>(spec.t));
      break;
    }
    case ScenarioFamily::kLemma9: {
      Lemma9Instance li = build_lemma9_instance(spec.ell, rng);
      cell.instance = std::move(li.instance);
      cell.witness = std::move(li.planted);
      cell.witness_value =
          static_cast<double>(spec.ell * spec.ell * spec.ell);
      const InstanceStats st = cell.instance.stats();
      cell.bound = theorem2_lower_bound(st.k_max, st.sigma_max);
      break;
    }
    default:
      OSP_REQUIRE_MSG(false, "scenario '"
                                 << spec.name
                                 << "' is not an adversarial family "
                                    "(expected theorem3, weak-lb, or lemma9)");
  }
  check_witness(spec, cell.instance, cell.witness, cell.witness_value);
  return cell;
}

OptDenominator opt_denominator(const Instance& inst, double witness_value,
                               std::size_t lp_row_limit) {
  OptDenominator d;
  d.opt = witness_value;
  if (inst.num_sets() <= kExactMaxSets) {
    const OfflineResult r = exact_optimum(inst);
    if (r.exact) {
      const double v = static_cast<double>(r.value);
      OSP_REQUIRE_MSG(v + 1e-9 >= witness_value,
                      "exact optimum " << v
                                       << " below the verified witness "
                                       << witness_value);
      d.opt = v;
      d.opt_exact = true;
    }
  }
  if (inst.num_elements() + inst.num_sets() <= lp_row_limit) {
    d.lp_upper = lp_upper_bound(inst);
    OSP_REQUIRE_MSG(d.lp_upper + 1e-6 >= d.opt,
                    "LP upper bound " << d.lp_upper
                                      << " below the denominator " << d.opt);
  }
  return d;
}

}  // namespace osp::api
