// Offline solvers for the general packing model (open problem 1, see
// core/general.hpp): set S takes d(S,u) of element u's b(u) units.
#pragma once

#include "algos/offline.hpp"
#include "core/general.hpp"

namespace osp {

/// True iff the chosen sets' demands fit every element capacity.
bool general_feasible(const GeneralInstance& inst,
                      const std::vector<SetId>& chosen);

/// Exact maximum-weight feasible collection: exact_optimum's branch &
/// bound with each element's slack counted in units, searched from the
/// empty collection.
OfflineResult general_exact_optimum(const GeneralInstance& inst,
                                    std::uint64_t node_limit = 20'000'000);

/// Objective value of  max w·x  s.t.  Σ_S d(S,u)·x_S <= b(u),
/// 0 <= x <= 1  — a certified upper bound on the general packing optimum.
double general_lp_upper_bound(const GeneralInstance& inst);

}  // namespace osp
