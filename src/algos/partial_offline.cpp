#include "algos/partial_offline.hpp"

#include <algorithm>

#include "algos/flow.hpp"
#include "algos/simplex.hpp"
#include "util/require.hpp"

namespace osp {

bool partial_feasible(const Instance& inst, const std::vector<SetId>& chosen,
                      const PartialCreditRule& rule) {
  // Nodes: source, one per chosen set, one per element touched, sink.
  std::vector<bool> seen(inst.num_sets(), false);
  for (SetId s : chosen) {
    if (s >= inst.num_sets() || seen[s]) return false;
    seen[s] = true;
  }

  // Collect touched elements and index them densely.
  std::vector<std::int64_t> elem_node(inst.num_elements(), -1);
  std::size_t num_elems = 0;
  for (SetId s : chosen)
    for (ElementId u : inst.elements_of(s))
      if (elem_node[u] < 0) elem_node[u] = static_cast<std::int64_t>(num_elems++);

  const std::size_t source = 0;
  const std::size_t set_base = 1;
  const std::size_t elem_base = set_base + chosen.size();
  const std::size_t sink = elem_base + num_elems;
  FlowNetwork net(sink + 1);

  std::int64_t total_demand = 0;
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    SetId s = chosen[i];
    std::size_t size = inst.set_size(s);
    std::int64_t demand =
        static_cast<std::int64_t>(size) -
        static_cast<std::int64_t>(std::min(rule.max_misses, size));
    total_demand += demand;
    net.add_edge(source, set_base + i, demand);
    for (ElementId u : inst.elements_of(s))
      net.add_edge(set_base + i,
                   elem_base + static_cast<std::size_t>(elem_node[u]), 1);
  }
  for (ElementId u = 0; u < inst.num_elements(); ++u)
    if (elem_node[u] >= 0)
      net.add_edge(elem_base + static_cast<std::size_t>(elem_node[u]), sink,
                   static_cast<std::int64_t>(inst.arrival(u).capacity));

  return net.max_flow(source, sink) == total_demand;
}

namespace {

/// Fit test under partial credit: the whole collection must pass the
/// max-flow check, which is monotone because a set only adds demand.
class PartialFlow {
 public:
  PartialFlow(const Instance& inst, const PartialCreditRule& rule)
      : inst_(inst), rule_(rule) {}

  bool add(SetId s) {
    chosen_.push_back(s);
    if (partial_feasible(inst_, chosen_, rule_)) return true;
    chosen_.pop_back();
    return false;
  }

  void remove(SetId) { chosen_.pop_back(); }

 private:
  const Instance& inst_;
  PartialCreditRule rule_;
  std::vector<SetId> chosen_;
};

}  // namespace

OfflineResult partial_exact_optimum(const Instance& inst,
                                    const PartialCreditRule& rule,
                                    std::uint64_t node_limit) {
  OSP_REQUIRE_MSG(!rule.prorated,
                  "exact search supports the threshold rule; use "
                  "partial_lp_upper_bound for prorated scoring");
  return BranchAndBound(PartialFlow(inst, rule), inst.weights(),
                        inst.set_sizes(), node_limit)
      .run(OfflineResult{});
}

double partial_lp_upper_bound(const Instance& inst,
                              const PartialCreditRule& rule) {
  // Variables: x_S (take set S), then y_{S,u} for each membership pair
  // (S claims element u).  Constraints:
  //   Σ_S y_{S,u} <= b(u)                        per element
  //   y_{S,u} - x_S <= 0                        per membership
  //   (|S|-r)·x_S - Σ_u y_{S,u} <= 0            per set
  //   x_S <= 1                                  per set
  const std::size_t m = inst.num_sets();
  std::size_t pairs = 0;
  for (SetId s = 0; s < m; ++s) pairs += inst.set_size(s);
  const std::size_t vars = m + pairs;

  // Index y-vars by running offset per set.
  std::vector<std::size_t> y_base(m);
  {
    std::size_t off = m;
    for (SetId s = 0; s < m; ++s) {
      y_base[s] = off;
      off += inst.set_size(s);
    }
  }

  std::vector<std::vector<double>> a;
  std::vector<double> b;

  // Element capacity rows.
  for (ElementId u = 0; u < inst.num_elements(); ++u) {
    std::vector<double> row(vars, 0.0);
    for (SetId s : inst.arrival(u).parents) {
      // position of u within s's element list
      const auto& elems = inst.elements_of(s);
      auto it = std::lower_bound(elems.begin(), elems.end(), u);
      OSP_ASSERT(it != elems.end() && *it == u);
      row[y_base[s] + static_cast<std::size_t>(it - elems.begin())] = 1.0;
    }
    a.push_back(std::move(row));
    b.push_back(static_cast<double>(inst.arrival(u).capacity));
  }
  // Membership rows y <= x.
  for (SetId s = 0; s < m; ++s)
    for (std::size_t i = 0; i < inst.set_size(s); ++i) {
      std::vector<double> row(vars, 0.0);
      row[y_base[s] + i] = 1.0;
      row[s] = -1.0;
      a.push_back(std::move(row));
      b.push_back(0.0);
    }
  // Demand rows (|S|-r) x_S - Σ y <= 0.
  for (SetId s = 0; s < m; ++s) {
    std::vector<double> row(vars, 0.0);
    double need = static_cast<double>(inst.set_size(s)) -
                  static_cast<double>(
                      std::min(rule.max_misses, inst.set_size(s)));
    row[s] = need;
    for (std::size_t i = 0; i < inst.set_size(s); ++i)
      row[y_base[s] + i] = -1.0;
    a.push_back(std::move(row));
    b.push_back(0.0);
  }
  // x <= 1 rows.
  for (SetId s = 0; s < m; ++s) {
    std::vector<double> row(vars, 0.0);
    row[s] = 1.0;
    a.push_back(std::move(row));
    b.push_back(1.0);
  }

  std::vector<double> c(vars, 0.0);
  for (SetId s = 0; s < m; ++s) c[s] = inst.weight(s);

  LpResult lp = simplex_maximize(a, b, c);
  OSP_REQUIRE(lp.status == LpResult::Status::kOptimal);
  return lp.value;
}

}  // namespace osp
