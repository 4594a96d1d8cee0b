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
  OSP_REQUIRE(set_sizes_.size() == weights_.size());
  OSP_REQUIRE(members_.num_rows() == weights_.size());
  OSP_REQUIRE(parents_.num_rows() == capacities_.size());
  OSP_REQUIRE(parents_.total_values() == members_.total_values());
  for (std::size_t s = 0; s < weights_.size(); ++s) {
    OSP_REQUIRE_MSG(weights_[s] >= 0 && std::isfinite(weights_[s]),
                    "weight of set " << s
                                     << " must be finite and non-negative");
    OSP_REQUIRE(members_.row_size(s) == set_sizes_[s]);
    for (ElementId u : members_.row(s)) {
      OSP_REQUIRE(u < num_elements());
      Span<SetId> par = parents_.row(u);
      OSP_REQUIRE(std::binary_search(par.begin(), par.end(),
                                     static_cast<SetId>(s)));
    }
  }
  for (ElementId u = 0; u < num_elements(); ++u) {
    OSP_REQUIRE_MSG(capacities_[u] >= 1, "element capacity must be >= 1");
    Span<SetId> par = parents_.row(u);
    OSP_REQUIRE(std::is_sorted(par.begin(), par.end()));
    OSP_REQUIRE(std::adjacent_find(par.begin(), par.end()) == par.end());
    for (SetId s : par) OSP_REQUIRE(s < weights_.size());
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
  for (SetId s : parents)
    OSP_REQUIRE_MSG(s < weights_.size(), "unknown set id " << s);
  arrivals_.push_back(Arrival{capacity, std::move(parents)});
  return static_cast<ElementId>(arrivals_.size() - 1);
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
  inst.set_sizes_.assign(inst.weights_.size(), 0);
  for (SetId s : inst.parents_.values()) {
    OSP_REQUIRE_MSG(s < inst.weights_.size(), "unknown set id " << s);
    ++inst.set_sizes_[s];
  }
  for (Capacity b : inst.capacities_)
    inst.max_capacity_ = std::max(inst.max_capacity_, b);

  // Scatter the transpose into the per-set member CSR using set_sizes_ as
  // row extents.
  inst.members_ = CsrArray<ElementId>::from_sizes(inst.set_sizes_);
  std::vector<std::size_t> fill(inst.weights_.size(), 0);
  for (ElementId u = 0; u < inst.num_elements(); ++u)
    for (SetId s : inst.parents_.row(u))
      inst.members_.mutable_row(s)[fill[s]++] = u;

  inst.validate();
  return inst;
}

Instance InstanceBuilder::build() {
  std::size_t total = 0;
  for (const Arrival& a : arrivals_) total += a.parents.size();
  std::vector<Capacity> capacities;
  capacities.reserve(arrivals_.size());
  CsrArray<SetId> parents;
  parents.reserve(arrivals_.size(), total);
  for (const Arrival& a : arrivals_) {
    capacities.push_back(a.capacity);
    parents.push_row(a.parents.begin(), a.parents.end());
  }
  arrivals_.clear();  // frees the per-element rows before the transpose
  return Instance::from_csr(std::exchange(weights_, {}),
                            std::move(capacities), std::move(parents));
}

}  // namespace osp
