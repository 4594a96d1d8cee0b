#include "core/instance.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "util/require.hpp"

namespace osp {

Weight Instance::weighted_load(ElementId u) const {
  Weight w = 0;
  for (SetId s : parents_.row(u)) w += weights_[s];
  return w;
}

double Instance::adjusted_load(ElementId u) const {
  return static_cast<double>(load(u)) / static_cast<double>(capacities_[u]);
}

InstanceStats Instance::stats() const {
  InstanceStats st;
  st.num_sets = num_sets();
  st.num_elements = num_elements();

  for (std::size_t s = 0; s < weights_.size(); ++s) {
    st.total_weight += weights_[s];
    st.k_max = std::max(st.k_max, set_sizes_[s]);
    st.k_avg += static_cast<double>(set_sizes_[s]);
    if (weights_[s] != 1.0) st.unweighted = false;
    if (set_sizes_[s] != set_sizes_[0]) st.uniform_size = false;
  }
  if (!weights_.empty()) st.k_avg /= static_cast<double>(weights_.size());

  for (ElementId u = 0; u < num_elements(); ++u) {
    std::size_t sigma = load(u);
    Weight sw = weighted_load(u);
    double nu = adjusted_load(u);
    st.sigma_max = std::max(st.sigma_max, sigma);
    st.sigma_avg += static_cast<double>(sigma);
    st.sigma_sq_avg += static_cast<double>(sigma) * static_cast<double>(sigma);
    st.sigma_w_avg += sw;
    st.sigma_sigma_w_avg += static_cast<double>(sigma) * sw;
    st.nu_max = std::max(st.nu_max, nu);
    st.nu_avg += nu;
    st.nu_sigma_w_avg += nu * sw;
    st.b_max = std::max(st.b_max, capacities_[u]);
    if (capacities_[u] != 1) st.unit_capacity = false;
    if (sigma != load(0)) st.uniform_load = false;
  }
  if (num_elements() > 0) {
    auto n = static_cast<double>(num_elements());
    st.sigma_avg /= n;
    st.sigma_sq_avg /= n;
    st.sigma_w_avg /= n;
    st.sigma_sigma_w_avg /= n;
    st.nu_avg /= n;
    st.nu_sigma_w_avg /= n;
  }
  return st;
}

void Instance::validate() const {
  const std::size_t m = weights_.size();
  OSP_REQUIRE(set_sizes_.size() == m);
  OSP_REQUIRE(members_.num_rows() == m);
  OSP_REQUIRE(parents_.num_rows() == capacities_.size());
  OSP_REQUIRE(parents_.total_values() == members_.total_values());
  for (std::size_t s = 0; s < m; ++s) {
    OSP_REQUIRE_MSG(weights_[s] >= 0 && std::isfinite(weights_[s]),
                    "weight of set " << s
                                     << " must be finite and non-negative");
    OSP_REQUIRE(members_.row_size(s) == set_sizes_[s]);
  }
  // One walk of the parent rows in arrival order, with a cursor per set
  // into its member row: every membership (u, s) must be the entry under
  // s's cursor, so each member row lists exactly the elements naming s,
  // in arrival order.  A cursor advances once per membership and never
  // past its row, and both CSRs hold the same number of values, so the
  // walk consumes every member row to its end.
  std::vector<std::size_t> cursor(m, 0);
  for (ElementId u = 0; u < num_elements(); ++u) {
    OSP_REQUIRE_MSG(capacities_[u] >= 1, "element capacity must be >= 1");
    const Span<SetId> par = parents_.row(u);
    for (std::size_t i = 0; i < par.size(); ++i) {
      const SetId s = par[i];
      OSP_REQUIRE_MSG(s < m, "unknown set id " << s);
      OSP_REQUIRE_MSG(i == 0 || par[i - 1] < s,
                      "parents of element " << u
                                            << " are not sorted and distinct");
      const Span<ElementId> row = members_.row(s);
      OSP_REQUIRE(cursor[s] < row.size() && row[cursor[s]] == u);
      ++cursor[s];
    }
  }
}

std::string Instance::describe() const {
  InstanceStats st = stats();
  std::ostringstream os;
  os << "m=" << st.num_sets << " n=" << st.num_elements
     << " kmax=" << st.k_max << " smax=" << st.sigma_max
     << " w=" << st.total_weight
     << (st.unit_capacity ? "" : " varcap")
     << (st.unweighted ? "" : " weighted");
  return os.str();
}

SetId InstanceBuilder::add_set(Weight w) {
  OSP_REQUIRE_MSG(w >= 0, "set weight must be non-negative");
  OSP_REQUIRE(std::isfinite(w));
  weights_.push_back(w);
  return static_cast<SetId>(weights_.size() - 1);
}

SetId InstanceBuilder::add_sets(std::size_t count, Weight w) {
  OSP_REQUIRE(count >= 1);
  SetId first = add_set(w);
  for (std::size_t i = 1; i < count; ++i) add_set(w);
  return first;
}

ElementId InstanceBuilder::add_element(std::vector<SetId> parents,
                                       Capacity capacity) {
  OSP_REQUIRE_MSG(capacity >= 1, "element capacity must be >= 1");
  std::sort(parents.begin(), parents.end());
  OSP_REQUIRE_MSG(std::adjacent_find(parents.begin(), parents.end()) ==
                      parents.end(),
                  "duplicate parent set in element");
  OSP_REQUIRE_MSG(parents.empty() || parents.back() < weights_.size(),
                  "unknown set id " << parents.back());
  parents_.push_row(parents.begin(), parents.end());
  capacities_.push_back(capacity);
  return static_cast<ElementId>(capacities_.size() - 1);
}

Instance Instance::from_csr(std::vector<Weight> weights,
                            std::vector<Capacity> capacities,
                            CsrArray<SetId> parents) {
  OSP_REQUIRE_MSG(parents.num_rows() == capacities.size(),
                  parents.num_rows() << " parent rows for "
                                     << capacities.size() << " elements");
  Instance inst;
  inst.weights_ = std::move(weights);
  inst.capacities_ = std::move(capacities);
  inst.parents_ = std::move(parents);
  const std::size_t m = inst.weights_.size();
  inst.set_sizes_.assign(m, 0);
  for (SetId s : inst.parents_.values()) {
    OSP_REQUIRE_MSG(s < m, "unknown set id " << s);
    ++inst.set_sizes_[s];
  }
  for (ElementId u = 0; u < inst.num_elements(); ++u)
    inst.max_choices_ = std::max<std::size_t>(
        inst.max_choices_, std::min<std::size_t>(inst.capacities_[u],
                                                 inst.parents_.row_size(u)));

  // Scatter the transpose in arrival order, so each member row comes out
  // ascending.
  inst.members_ = CsrArray<ElementId>::from_sizes(inst.set_sizes_);
  std::vector<std::size_t> fill(m, 0);
  for (ElementId u = 0; u < inst.num_elements(); ++u)
    for (SetId s : inst.parents_.row(u))
      inst.members_.mutable_row(s)[fill[s]++] = u;

  inst.validate();
  return inst;
}

Instance InstanceBuilder::build() {
  return Instance::from_csr(std::exchange(weights_, {}),
                            std::exchange(capacities_, {}),
                            std::exchange(parents_, {}));
}

}  // namespace osp
