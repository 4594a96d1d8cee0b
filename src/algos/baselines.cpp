#include "algos/baselines.hpp"

#include <algorithm>

namespace osp {

namespace {

// Fills `out` (capacity `capacity`) from `first` then `second`; returns the
// number written: ranked actives first, dead filler after ("filling
// leftover capacity with dead sets is harmless; doing so keeps the policy
// total, like a real link").
std::size_t fill_choice(const std::vector<SetId>& first,
                        const std::vector<SetId>& second, Capacity capacity,
                        SetId* out) {
  std::size_t n = 0;
  for (SetId s : first) {
    if (n == capacity) return n;
    out[n++] = s;
  }
  for (SetId s : second) {
    if (n == capacity) return n;
    out[n++] = s;
  }
  return n;
}

}  // namespace

std::size_t ScoredBaseline::decide(ElementId, Capacity capacity,
                                   const SetId* candidates,
                                   std::size_t num_candidates, SetId* out) {
  active_.clear();
  dead_.clear();
  for (std::size_t i = 0; i < num_candidates; ++i)
    (is_active(candidates[i]) ? active_ : dead_).push_back(candidates[i]);
  // (score desc, id asc) is a strict total order, so plain sort yields the
  // same unique ordering the seed's stable_sort produced.
  std::sort(active_.begin(), active_.end(), [&](SetId a, SetId b) {
    double sa = score(a), sb = score(b);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  std::size_t n = fill_choice(active_, dead_, capacity, out);
  record(candidates, num_candidates, out, n);
  return n;
}

double GreedyFirst::score(SetId s) const {
  return -static_cast<double>(s);
}

double GreedyMaxWeight::score(SetId s) const { return meta()[s].weight; }

double GreedyMostProgress::score(SetId s) const {
  return static_cast<double>(progress(s));
}

double GreedyFewestRemaining::score(SetId s) const {
  return -static_cast<double>(remaining(s));
}

double GreedyDensity::score(SetId s) const {
  double rem = static_cast<double>(remaining(s));
  // A set with nothing left to come is a guaranteed completion if chosen
  // now; give it the highest density.
  return meta()[s].weight / (rem > 0 ? rem : 0.5);
}

void RoundRobin::start(const std::vector<SetMeta>& sets) {
  ActiveTracking::start(sets);
  cursor_ = 0;
}

std::size_t RoundRobin::decide(ElementId u, Capacity capacity,
                               const SetId* candidates,
                               std::size_t num_candidates, SetId* out) {
  const std::size_t n =
      ScoredBaseline::decide(u, capacity, candidates, num_candidates, out);
  if (n > 0) cursor_ = out[0] + 1;
  if (cursor_ >= meta().size()) cursor_ = 0;
  return n;
}

double RoundRobin::score(SetId s) const { return s >= cursor_ ? 1.0 : 0.0; }

std::size_t UniformRandomChoice::decide(ElementId, Capacity capacity,
                                        const SetId* candidates,
                                        std::size_t num_candidates,
                                        SetId* out) {
  pool_.clear();
  for (std::size_t i = 0; i < num_candidates; ++i)
    if (is_active(candidates[i])) pool_.push_back(candidates[i]);
  if (pool_.empty()) pool_.assign(candidates, candidates + num_candidates);

  std::size_t n = 0;
  // Partial Fisher–Yates: draw up to `capacity` distinct sets.
  for (std::size_t i = 0; i < pool_.size() && n < capacity; ++i) {
    std::size_t j = i + static_cast<std::size_t>(
                            rng_.below(pool_.size() - i));
    std::swap(pool_[i], pool_[j]);
    out[n++] = pool_[i];
  }
  record(candidates, num_candidates, out, n);
  return n;
}

std::vector<std::unique_ptr<OnlineAlgorithm>> make_deterministic_baselines() {
  std::vector<std::unique_ptr<OnlineAlgorithm>> out;
  out.push_back(std::make_unique<GreedyFirst>());
  out.push_back(std::make_unique<GreedyMaxWeight>());
  out.push_back(std::make_unique<GreedyMostProgress>());
  out.push_back(std::make_unique<GreedyFewestRemaining>());
  out.push_back(std::make_unique<GreedyDensity>());
  out.push_back(std::make_unique<RoundRobin>());
  return out;
}

}  // namespace osp
