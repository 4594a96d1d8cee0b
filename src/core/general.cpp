#include "core/general.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/require.hpp"

namespace osp {

GeneralStats GeneralInstance::stats() const {
  GeneralStats st;
  st.num_sets = num_sets();
  st.num_elements = num_elements();
  for (Weight w : weights_) st.total_weight += w;
  for (std::size_t s = 0; s < appearances_.size(); ++s)
    st.k_max = std::max(st.k_max, appearances_[s]);
  for (const GeneralArrival& a : arrivals_) {
    std::uint64_t demanded = 0;
    for (const UnitDemand& d : a.demands) demanded += d.units;
    double nu = static_cast<double>(demanded) / a.capacity;
    st.nu_max = std::max(st.nu_max, nu);
    st.nu_avg += nu;
  }
  if (!arrivals_.empty()) st.nu_avg /= static_cast<double>(arrivals_.size());
  return st;
}

void GeneralInstance::validate() const {
  OSP_REQUIRE(appearances_.size() == weights_.size());
  std::vector<std::size_t> counted(weights_.size(), 0);
  for (const GeneralArrival& a : arrivals_) {
    OSP_REQUIRE(a.capacity >= 1);
    for (std::size_t i = 0; i < a.demands.size(); ++i) {
      OSP_REQUIRE(a.demands[i].set < weights_.size());
      OSP_REQUIRE(a.demands[i].units >= 1);
      if (i > 0) OSP_REQUIRE(a.demands[i - 1].set < a.demands[i].set);
      ++counted[a.demands[i].set];
    }
  }
  for (std::size_t s = 0; s < weights_.size(); ++s)
    OSP_REQUIRE(counted[s] == appearances_[s]);
}

SetId GeneralInstanceBuilder::add_set(Weight w) {
  OSP_REQUIRE(w >= 0 && std::isfinite(w));
  weights_.push_back(w);
  return static_cast<SetId>(weights_.size() - 1);
}

ElementId GeneralInstanceBuilder::add_element(std::vector<UnitDemand> demands,
                                              std::uint32_t capacity) {
  OSP_REQUIRE(capacity >= 1);
  std::sort(demands.begin(), demands.end(),
            [](const UnitDemand& a, const UnitDemand& b) {
              return a.set < b.set;
            });
  for (std::size_t i = 0; i < demands.size(); ++i) {
    OSP_REQUIRE_MSG(demands[i].set < weights_.size(), "unknown set");
    OSP_REQUIRE_MSG(demands[i].units >= 1, "zero-unit demand");
    if (i > 0)
      OSP_REQUIRE_MSG(demands[i - 1].set != demands[i].set,
                      "duplicate set in element");
  }
  arrivals_.push_back(GeneralArrival{capacity, std::move(demands)});
  return static_cast<ElementId>(arrivals_.size() - 1);
}

GeneralInstance GeneralInstanceBuilder::build() {
  GeneralInstance inst;
  inst.weights_ = std::move(weights_);
  inst.arrivals_ = std::move(arrivals_);
  inst.appearances_.assign(inst.weights_.size(), 0);
  for (const GeneralArrival& a : inst.arrivals_)
    for (const UnitDemand& d : a.demands) ++inst.appearances_[d.set];
  inst.validate();
  weights_.clear();
  arrivals_.clear();
  return inst;
}

GeneralOutcome play_general(const GeneralInstance& inst,
                            GeneralAlgorithm& alg) {
  std::vector<SetMeta> metas(inst.num_sets());
  for (SetId s = 0; s < inst.num_sets(); ++s)
    metas[s] = SetMeta{inst.weight(s), inst.appearances(s)};
  alg.start(metas);

  std::vector<std::size_t> granted(inst.num_sets(), 0);
  for (ElementId u = 0; u < inst.num_elements(); ++u) {
    const GeneralArrival& a = inst.arrival(u);
    std::vector<SetId> chosen = alg.on_element(u, a);
    // Enforce the rules: chosen sets must demand here, be distinct, and
    // their units must fit the capacity.
    std::uint64_t used = 0;
    std::vector<SetId> sorted = chosen;
    std::sort(sorted.begin(), sorted.end());
    OSP_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
    for (SetId s : sorted) {
      auto it = std::lower_bound(
          a.demands.begin(), a.demands.end(), s,
          [](const UnitDemand& d, SetId v) { return d.set < v; });
      OSP_REQUIRE_MSG(it != a.demands.end() && it->set == s,
                      "granted a set that does not demand this element");
      used += it->units;
      ++granted[s];
    }
    OSP_REQUIRE_MSG(used <= a.capacity,
                    "granted units " << used << " exceed capacity "
                                     << a.capacity);
  }

  GeneralOutcome out;
  for (SetId s = 0; s < inst.num_sets(); ++s) {
    if (granted[s] == inst.appearances(s)) {
      out.completed.push_back(s);
      out.benefit += inst.weight(s);
    }
  }
  return out;
}

namespace {

// Shared allocation rule: scan candidates in the order given by `better`,
// grant every demand that still fits.
std::vector<SetId> priority_fill(
    const GeneralArrival& arrival,
    const std::function<bool(SetId, SetId)>& better) {
  std::vector<SetId> order;
  order.reserve(arrival.demands.size());
  for (const UnitDemand& d : arrival.demands) order.push_back(d.set);
  std::sort(order.begin(), order.end(), better);

  std::vector<SetId> granted;
  std::uint64_t left = arrival.capacity;
  for (SetId s : order) {
    auto it = std::lower_bound(
        arrival.demands.begin(), arrival.demands.end(), s,
        [](const UnitDemand& d, SetId v) { return d.set < v; });
    if (it->units <= left) {
      left -= it->units;
      granted.push_back(s);
    }
  }
  return granted;
}

}  // namespace

void GeneralRandPr::start(const std::vector<SetMeta>& sets) {
  priorities_.resize(sets.size());
  for (SetId s = 0; s < sets.size(); ++s)
    priorities_[s] = sample_rw_key(std::max(sets[s].weight, 1e-12), rng_);
}

std::vector<SetId> GeneralRandPr::on_element(ElementId,
                                             const GeneralArrival& arrival) {
  return priority_fill(arrival, [&](SetId a, SetId b) {
    return priorities_[b] < priorities_[a];
  });
}

std::vector<SetId> GeneralGreedyWeight::on_element(
    ElementId, const GeneralArrival& arrival) {
  return priority_fill(arrival, [&](SetId a, SetId b) {
    if (metas_[a].weight != metas_[b].weight)
      return metas_[a].weight > metas_[b].weight;
    return a < b;
  });
}

std::vector<SetId> GeneralFirstFit::on_element(
    ElementId, const GeneralArrival& arrival) {
  return priority_fill(arrival, [](SetId a, SetId b) { return a < b; });
}

}  // namespace osp
