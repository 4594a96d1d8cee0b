#include "algos/baselines.hpp"

#include <algorithm>

namespace osp {

std::size_t ScoredBaseline::decide(ElementId, Capacity capacity,
                                   const SetId* candidates,
                                   std::size_t num_candidates, SetId* out) {
  scored_.clear();
  dead_.clear();
  for (std::size_t i = 0; i < num_candidates; ++i) {
    const SetId s = candidates[i];
    if (is_active(s)) scored_.emplace_back(score(s), s);
    else dead_.push_back(s);
  }
  // (score desc, id asc) is a strict total order, so plain sort yields the
  // same unique ordering the seed's stable_sort produced.
  std::sort(scored_.begin(), scored_.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  // Ranked actives first, dead filler after: filling leftover capacity
  // with dead sets is harmless, and it keeps the policy total, like a real
  // link.
  std::size_t n = 0;
  for (std::size_t i = 0; i < scored_.size() && n < capacity; ++i)
    out[n++] = scored_[i].second;
  for (std::size_t i = 0; i < dead_.size() && n < capacity; ++i)
    out[n++] = dead_[i];
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
