// Offline solvers for the integer program (1) of the paper:
//
//   max  Σ w_i x_i   s.t.  Σ_{i: S_i ∋ u_j} x_i <= b_j,   x ∈ {0,1}^m.
//
// These supply the `opt` term in every measured competitive ratio:
//  * exact_optimum      — branch & bound, exact for benchmark-scale m;
//  * greedy_offline     — classic weight-ordered greedy (k-approximation);
//  * lp_upper_bound     — simplex on the LP relaxation, a certified upper
//                         bound on opt when exact search is infeasible.
//
// The branch and bound is one search, BranchAndBound<Fit>, which the
// partial-credit (partial_offline.hpp) and general (general_offline.hpp)
// programs share: the three differ only in how a set is tested for fit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/instance.hpp"

namespace osp {

/// Result of an offline computation.
struct OfflineResult {
  Weight value = 0;             // total weight of `chosen`
  std::vector<SetId> chosen;    // a feasible collection
  bool exact = false;           // true iff proven optimal
};

/// The order in which greedy_offline scans the sets and BranchAndBound
/// branches on them: weight descending, then size ascending.
std::vector<SetId> weight_order(const std::vector<Weight>& weights,
                                const std::vector<std::size_t>& sizes);

/// Branch and bound over take/skip decisions on the sets in weight_order,
/// pruning a branch once even all of its remaining weight cannot beat the
/// incumbent.
///
/// `Fit` is the program's feasibility test, kept incrementally:
/// `bool add(SetId s)` takes s into the collection and returns true when
/// the collection still fits, or returns false and changes nothing;
/// `void remove(SetId s)` undoes the latest successful add(s).  The test
/// must be monotone (a collection that does not fit stays unfit when a
/// set is added), which makes skipping an unfit set's subtree sound.
template <class Fit>
class BranchAndBound {
 public:
  /// `weights` and `sizes` are indexed by set id.
  BranchAndBound(Fit fit, const std::vector<Weight>& weights,
                 const std::vector<std::size_t>& sizes,
                 std::uint64_t node_limit)
      : fit_(std::move(fit)),
        order_(weight_order(weights, sizes)),
        weight_(order_.size()),
        suffix_(order_.size() + 1, 0),
        node_limit_(node_limit) {
    for (std::size_t i = order_.size(); i-- > 0;) {
      weight_[i] = weights[order_[i]];
      suffix_[i] = suffix_[i + 1] + weight_[i];
    }
  }

  /// Searches from `incumbent`, a feasible collection and its weight, and
  /// returns the heaviest collection found, sorted by set id; `exact` is
  /// false when the search would need more than the node limit's nodes.
  OfflineResult run(OfflineResult incumbent) {
    best_ = std::move(incumbent.chosen);
    best_value_ = incumbent.value;
    branch(0, 0);
    OfflineResult out;
    out.value = best_value_;
    out.chosen = std::move(best_);
    std::sort(out.chosen.begin(), out.chosen.end());
    out.exact = !truncated_;
    return out;
  }

 private:
  void branch(std::size_t idx, Weight value) {
    if (++nodes_ > node_limit_) {
      truncated_ = true;
      return;
    }
    if (value > best_value_) {
      best_value_ = value;
      best_ = current_;
    }
    if (idx == order_.size() || value + suffix_[idx] <= best_value_) return;
    const SetId s = order_[idx];
    if (fit_.add(s)) {
      current_.push_back(s);
      branch(idx + 1, value + weight_[idx]);
      current_.pop_back();
      fit_.remove(s);
      if (truncated_) return;
    }
    branch(idx + 1, value);
  }

  Fit fit_;
  std::vector<SetId> order_;     // sets in weight_order
  std::vector<Weight> weight_;   // weight of order_[i]
  std::vector<Weight> suffix_;   // suffix sums of weight_
  std::vector<SetId> current_;
  std::vector<SetId> best_;
  Weight best_value_ = 0;
  std::uint64_t nodes_ = 0;
  std::uint64_t node_limit_;
  bool truncated_ = false;
};

/// Exact maximum-weight feasible collection via branch & bound, seeded
/// with the greedy packing.  If `node_limit` is exceeded, returns the best
/// solution found with exact=false.  Practical up to m around 60 for the
/// dense instances in this library; all benchmark families stay below that
/// or know opt analytically.
OfflineResult exact_optimum(const Instance& inst,
                            std::uint64_t node_limit = 20'000'000);

/// Greedy: scan sets by descending weight (ties: smaller size first) and
/// take each set whose elements all still have spare capacity.
OfflineResult greedy_offline(const Instance& inst);

/// Objective value of the LP relaxation — an upper bound on opt.
double lp_upper_bound(const Instance& inst);

/// True iff `chosen` is feasible for the instance (every element used at
/// most b(u) times by the chosen sets).
bool is_feasible(const Instance& inst, const std::vector<SetId>& chosen);

}  // namespace osp
