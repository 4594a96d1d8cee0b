#include "api/policy_registry.hpp"

#include "algos/baselines.hpp"
#include "core/rand_pr.hpp"

namespace osp::api {

namespace {

std::unique_ptr<OnlineAlgorithm> make_randpr(Rng rng, RandPrOptions options) {
  return std::make_unique<RandPr>(rng, options);
}

template <class Alg>
PolicyFactory stateless() {
  return [](Rng) { return std::make_unique<Alg>(); };
}

}  // namespace

const Registry<PolicyInfo>& policies() {
  // docs/CATALOG.md's order.  Aliases keep the historical CLI spellings and
  // the display names resolvable.  The baselines follow
  // make_deterministic_baselines() order (the benches' historical sweep
  // order), then the memoryless uniform-random choice.
  static const Registry<PolicyInfo> catalog(
      {"policy", "policies", {"spec", "description", "aliases"},
       alias_cell<PolicyInfo>},
      {
          {"randpr", "the paper's randPr: fixed R_w priorities, top-b(u) wins",
           {"randPr"},
           [](Rng r) { return make_randpr(r, {}); }},
          {"randpr:filt", "randPr that never assigns to dead sets (ablation)",
           {"randpr-filt", "randPr/filt"},
           [](Rng r) {
             return make_randpr(r, RandPrOptions{.filter_dead = true});
           }},
          {"randpr:filt1", "dead-set filtering with one allowed miss",
           {"randPr/filt1"},
           [](Rng r) {
             RandPrOptions o;
             o.filter_dead = true;
             o.allowed_misses = 1;
             return make_randpr(r, o);
           }},
          {"randpr:unif", "weight-blind priorities (all R_1; ablation)",
           {"randPr/unif"},
           [](Rng r) {
             return make_randpr(r, RandPrOptions{.ignore_weights = true});
           }},
          {"randpr:fresh", "priorities redrawn per element (negative control)",
           {"randPr/fresh"},
           [](Rng r) {
             RandPrOptions o;
             o.fresh_priorities_per_element = true;
             return make_randpr(r, o);
           }},
          {"hashpr", "distributed randPr over an 8-independent polynomial hash",
           {"hashPr", "hashPr/poly8"},
           [](Rng r) { return RandPr::with_polynomial(8, r); }},
          {"hashpr:tab", "distributed randPr over a tabulation hash",
           {"hashPr/tab"},
           [](Rng r) { return RandPr::with_tabulation(r); }},
          {"hashpr:ms", "distributed randPr over a multiply-shift hash",
           {"hashPr/ms"},
           [](Rng r) { return RandPr::with_multiply_shift(r); }},
          {"hashpr:filt", "hashed priorities plus dead-set filtering",
           {"hashPr/poly8/filt"},
           [](Rng r) {
             return RandPr::with_polynomial(
                 8, r, RandPrOptions{.filter_dead = true});
           }},
          {"greedy:first", "earliest-id active candidate wins",
           {"greedy-first"}, stateless<GreedyFirst>()},
          {"greedy:maxw", "heaviest active candidate wins",
           {"greedy-maxw"}, stateless<GreedyMaxWeight>()},
          {"greedy:progress", "most-invested active candidate wins (sunk cost)",
           {"greedy-progress"}, stateless<GreedyMostProgress>()},
          {"greedy:srpt", "fewest-remaining active candidate wins",
           {"greedy-srpt"}, stateless<GreedyFewestRemaining>()},
          {"greedy:density", "max weight-per-remaining-element wins",
           {"greedy-density"}, stateless<GreedyDensity>()},
          {"round-robin", "rotating id cursor over active candidates",
           {}, stateless<RoundRobin>()},
          {"uniform-random", "memoryless uniformly random admissible choice",
           {},
           [](Rng r) { return std::make_unique<UniformRandomChoice>(r); }},
      });
  return catalog;
}

}  // namespace osp::api
