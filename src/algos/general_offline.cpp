#include "algos/general_offline.hpp"

#include <utility>

#include "algos/simplex.hpp"
#include "util/require.hpp"

namespace osp {

bool general_feasible(const GeneralInstance& inst,
                      const std::vector<SetId>& chosen) {
  std::vector<bool> take(inst.num_sets(), false);
  for (SetId s : chosen) {
    if (s >= inst.num_sets() || take[s]) return false;
    take[s] = true;
  }
  for (ElementId u = 0; u < inst.num_elements(); ++u) {
    const GeneralArrival& a = inst.arrival(u);
    std::uint64_t used = 0;
    for (const UnitDemand& d : a.demands)
      if (take[d.set]) used += d.units;
    if (used > a.capacity) return false;
  }
  return true;
}

namespace {

/// Fit test of the general program: element u has b(u) units and set S
/// takes d(S,u) of them.
class GeneralSlack {
 public:
  explicit GeneralSlack(const GeneralInstance& inst)
      : slack_(inst.num_elements()), demands_of_(inst.num_sets()) {
    for (ElementId u = 0; u < inst.num_elements(); ++u) {
      slack_[u] = inst.arrival(u).capacity;
      for (const UnitDemand& d : inst.arrival(u).demands)
        demands_of_[d.set].emplace_back(u, d.units);
    }
  }

  bool add(SetId s) {
    for (auto [u, units] : demands_of_[s])
      if (slack_[u] < units) return false;
    for (auto [u, units] : demands_of_[s]) slack_[u] -= units;
    return true;
  }

  void remove(SetId s) {
    for (auto [u, units] : demands_of_[s]) slack_[u] += units;
  }

 private:
  std::vector<std::uint32_t> slack_;  // free units per element
  // Per set, the (element, units) pairs it demands.
  std::vector<std::vector<std::pair<ElementId, std::uint32_t>>> demands_of_;
};

}  // namespace

OfflineResult general_exact_optimum(const GeneralInstance& inst,
                                    std::uint64_t node_limit) {
  OfflineResult out = BranchAndBound(GeneralSlack(inst), inst.weights(),
                                     inst.set_sizes(), node_limit)
                          .run(OfflineResult{});
  OSP_ASSERT(general_feasible(inst, out.chosen));
  return out;
}

double general_lp_upper_bound(const GeneralInstance& inst) {
  const std::size_t m = inst.num_sets();
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  for (ElementId u = 0; u < inst.num_elements(); ++u) {
    const GeneralArrival& arr = inst.arrival(u);
    std::vector<double> row(m, 0.0);
    for (const UnitDemand& d : arr.demands)
      row[d.set] = static_cast<double>(d.units);
    a.push_back(std::move(row));
    b.push_back(static_cast<double>(arr.capacity));
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
