#include "api/ranker_registry.hpp"

namespace osp::api {

const Registry<RankerInfo>& rankers() {
  // The listed names are the rankers' display names — the keys the router
  // benches' tables and BENCH_router.json rows use.
  static const Registry<RankerInfo> catalog(
      {"ranker", "rankers", {"name", "description", "aliases"},
       alias_cell<RankerInfo>},
      {
          {"randPr",
           "persistent random R_w frame priorities (the paper's policy)",
           {"randpr"},
           [](Rng rng) { return std::make_unique<RandPrRanker>(rng); }},
          {"by-weight", "deterministic: protect the heaviest frames",
           {},
           [](Rng) { return std::make_unique<WeightRanker>(); }},
          {"drop-tail",
           "no preference: later arrivals lose (classic drop-tail)",
           {},
           [](Rng) { return std::make_unique<FifoRanker>(); }},
          {"random-drop", "uniform random priorities regardless of weight",
           {"random"},
           [](Rng rng) { return std::make_unique<RandomRanker>(rng); }},
      });
  return catalog;
}

}  // namespace osp::api
