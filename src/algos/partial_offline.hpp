// Offline optimum under partial credit (open problem 3).
//
// Choosing a collection is no longer enough: each chosen set must claim
// at least |S| - r of its elements without exceeding element capacities.
// Feasibility of a collection is a bipartite b-matching question answered
// by max-flow (sets with demand |S|-r on one side, elements with supply
// b(u) on the other); the optimum is found by branch & bound over
// collections with that flow check, and an LP relaxation provides a
// certified upper bound for larger instances.
#pragma once

#include "algos/offline.hpp"
#include "core/instance.hpp"
#include "core/partial.hpp"

namespace osp {

/// True iff every set in `chosen` can simultaneously claim at least
/// |S| - rule.max_misses of its elements within element capacities.
bool partial_feasible(const Instance& inst, const std::vector<SetId>& chosen,
                      const PartialCreditRule& rule);

/// Exact maximum total weight of a partially-creditable collection under
/// the threshold (non-prorated) rule: exact_optimum's branch & bound with
/// partial_feasible as the fit test, searched from the empty collection.
/// Practical for benchmark-scale m.
OfflineResult partial_exact_optimum(const Instance& inst,
                                    const PartialCreditRule& rule,
                                    std::uint64_t node_limit = 2'000'000);

/// LP relaxation upper bound on the partial-credit optimum (valid for
/// both the threshold and the prorated rule — prorated value is at most
/// threshold value).
double partial_lp_upper_bound(const Instance& inst,
                              const PartialCreditRule& rule);

}  // namespace osp
