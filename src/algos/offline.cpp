#include "algos/offline.hpp"

#include <algorithm>
#include <numeric>

#include "algos/simplex.hpp"
#include "util/require.hpp"

namespace osp {

bool is_feasible(const Instance& inst, const std::vector<SetId>& chosen) {
  std::vector<std::size_t> used(inst.num_elements(), 0);
  std::vector<bool> seen(inst.num_sets(), false);
  for (SetId s : chosen) {
    if (s >= inst.num_sets() || seen[s]) return false;
    seen[s] = true;
    for (ElementId u : inst.elements_of(s))
      if (++used[u] > inst.arrival(u).capacity) return false;
  }
  return true;
}

std::vector<SetId> weight_order(const std::vector<Weight>& weights,
                                const std::vector<std::size_t>& sizes) {
  std::vector<SetId> order(weights.size());
  std::iota(order.begin(), order.end(), SetId{0});
  std::sort(order.begin(), order.end(), [&](SetId a, SetId b) {
    if (weights[a] != weights[b]) return weights[a] > weights[b];
    return sizes[a] < sizes[b];
  });
  return order;
}

namespace {

/// Fit test of program (1): element u has b(u) slots and a set takes one
/// slot of each of its elements.
class UnitSlack {
 public:
  explicit UnitSlack(const Instance& inst)
      : inst_(inst), slack_(inst.num_elements()) {
    for (ElementId u = 0; u < inst.num_elements(); ++u)
      slack_[u] = inst.capacity(u);
  }

  bool add(SetId s) {
    for (ElementId u : inst_.elements_of(s))
      if (slack_[u] == 0) return false;
    for (ElementId u : inst_.elements_of(s)) --slack_[u];
    return true;
  }

  void remove(SetId s) {
    for (ElementId u : inst_.elements_of(s)) ++slack_[u];
  }

 private:
  const Instance& inst_;
  std::vector<Capacity> slack_;  // free slots per element
};

}  // namespace

OfflineResult exact_optimum(const Instance& inst, std::uint64_t node_limit) {
  // Seed the incumbent with greedy so pruning bites immediately.
  OfflineResult out =
      BranchAndBound(UnitSlack(inst), inst.weights(), inst.set_sizes(),
                     node_limit)
          .run(greedy_offline(inst));
  OSP_ASSERT(is_feasible(inst, out.chosen));
  return out;
}

OfflineResult greedy_offline(const Instance& inst) {
  UnitSlack fit(inst);
  OfflineResult out;
  for (SetId s : weight_order(inst.weights(), inst.set_sizes())) {
    if (!fit.add(s)) continue;
    out.chosen.push_back(s);
    out.value += inst.weight(s);
  }
  std::sort(out.chosen.begin(), out.chosen.end());
  return out;
}

double lp_upper_bound(const Instance& inst) {
  const std::size_t m = inst.num_sets();
  const std::size_t n = inst.num_elements();
  // Rows: one per element (capacity) + one per set (x_i <= 1).
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  a.reserve(n + m);
  for (ElementId u = 0; u < n; ++u) {
    std::vector<double> row(m, 0.0);
    for (SetId s : inst.arrival(u).parents) row[s] = 1.0;
    a.push_back(std::move(row));
    b.push_back(static_cast<double>(inst.arrival(u).capacity));
  }
  for (SetId s = 0; s < m; ++s) {
    std::vector<double> row(m, 0.0);
    row[s] = 1.0;
    a.push_back(std::move(row));
    b.push_back(1.0);
  }
  std::vector<double> c(m);
  for (SetId s = 0; s < m; ++s) c[s] = inst.weight(s);

  LpResult lp = simplex_maximize(a, b, c);
  OSP_REQUIRE(lp.status == LpResult::Status::kOptimal);
  return lp.value;
}

}  // namespace osp
