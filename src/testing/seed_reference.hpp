// Frozen replicas of the SEED repo's engine and randPr implementation,
// kept verbatim from the pre-flat-engine sources (see git history of
// src/core/game.cpp and src/core/rand_pr.cpp).
//
// Single source of truth for both the golden-equivalence tests
// (tests/test_engine.cpp) and the throughput baseline (bench/bench_perf):
// the same replica that is proven decision-for-decision equivalent to the
// ported code is the one the speedup is measured against.  Do not
// "improve" this code — its value is that it does not change.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "core/priority.hpp"
#include "core/rand_pr.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp::seedref {

/// One arrival as the seed stored it: element u with capacity b(u) and its
/// parent sets C(u) in a vector of their own.
struct Arrival {
  Capacity capacity = 1;
  std::vector<SetId> parents;  // sorted, distinct
};

/// The seed repo's RandPr: allocating selection, partial_sort,
/// unconditional activity bookkeeping.  Options-complete.  decide() runs
/// the seed's allocating body (select()) on a copy of the candidates.
class SeedRandPr final : public ActiveTracking {
 public:
  explicit SeedRandPr(Rng rng, RandPrOptions options = {})
      : rng_(rng), options_(options) {}
  std::string name() const override { return "seed-randPr"; }

  void start(const std::vector<SetMeta>& sets) override {
    ActiveTracking::start(sets);
    priorities_.resize(sets.size());
    for (SetId s = 0; s < sets.size(); ++s) {
      double w =
          options_.ignore_weights ? 1.0 : std::max(sets[s].weight, 1e-12);
      priorities_[s] = sample_rw_key(w, rng_);
    }
  }

  std::size_t decide(ElementId, Capacity capacity, const SetId* candidates,
                     std::size_t num_candidates, SetId* out) override {
    const std::vector<SetId> chosen = select(
        capacity,
        std::vector<SetId>(candidates, candidates + num_candidates));
    std::copy(chosen.begin(), chosen.end(), out);
    return chosen.size();
  }

  /// The seed's on_element body, verbatim.
  std::vector<SetId> select(Capacity capacity,
                            const std::vector<SetId>& candidates) {
    if (options_.fresh_priorities_per_element) {
      for (SetId s : candidates) {
        double w =
            options_.ignore_weights ? 1.0 : std::max(meta()[s].weight, 1e-12);
        priorities_[s] = sample_rw_key(w, rng_);
      }
    }
    const std::vector<SetId> pool =
        options_.filter_dead ? filter_active(candidates) : candidates;
    std::vector<SetId> chosen = seed_top(pool, capacity);
    record(candidates, chosen);
    return chosen;
  }

 private:
  std::vector<SetId> filter_active(const std::vector<SetId>& candidates) {
    std::vector<SetId> alive;
    alive.reserve(candidates.size());
    for (SetId s : candidates)
      if (misses(s) <= options_.allowed_misses) alive.push_back(s);
    return alive;
  }

  std::vector<SetId> seed_top(const std::vector<SetId>& candidates,
                              Capacity capacity) {
    if (candidates.size() <= capacity) return candidates;
    std::vector<SetId> chosen = candidates;
    std::partial_sort(chosen.begin(), chosen.begin() + capacity, chosen.end(),
                      [&](SetId a, SetId b) {
                        return priorities_[a] > priorities_[b];
                      });
    chosen.resize(capacity);
    return chosen;
  }

  Rng rng_;
  RandPrOptions options_;
  std::vector<PriorityKey> priorities_;
};

/// The seed engine's play(), line for line, over pre-materialized arrivals
/// (the seed stored arrivals as vectors, so its loop paid no CSR-to-vector
/// conversion — callers pre-build `arrivals` outside any timed region).
/// Each answer comes from the seed's allocating selection directly.
inline Outcome seed_play(const Instance& inst, SeedRandPr& alg,
                         const std::vector<Arrival>& arrivals) {
  std::vector<SetMeta> metas(inst.num_sets());
  for (SetId s = 0; s < inst.num_sets(); ++s)
    metas[s] = SetMeta{inst.weight(s), inst.set_size(s)};
  alg.start(metas);

  std::vector<std::size_t> got(inst.num_sets(), 0);
  Outcome out;
  out.completed_mask.assign(inst.num_sets(), false);

  for (ElementId u = 0; u < inst.num_elements(); ++u) {
    const Arrival& a = arrivals[u];
    std::vector<SetId> chosen = alg.select(a.capacity, a.parents);
    {  // seed check_answer: copy, sort, binary-search
      OSP_REQUIRE(chosen.size() <= a.capacity);
      std::vector<SetId> sorted = chosen;
      std::sort(sorted.begin(), sorted.end());
      OSP_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end());
      for (SetId s : sorted)
        OSP_REQUIRE(std::binary_search(a.parents.begin(), a.parents.end(), s));
    }
    for (SetId s : chosen) ++got[s];
    out.decisions += chosen.size();
  }

  for (SetId s = 0; s < inst.num_sets(); ++s) {
    if (got[s] == inst.set_size(s)) {
      out.completed.push_back(s);
      out.completed_mask[s] = true;
      out.benefit += inst.weight(s);
    }
  }
  return out;
}

/// Materializes an instance's arrivals the way the seed stored them.
inline std::vector<Arrival> materialize_arrivals(const Instance& inst) {
  std::vector<Arrival> arrivals;
  arrivals.reserve(inst.num_elements());
  for (ElementId u = 0; u < inst.num_elements(); ++u)
    arrivals.push_back(
        Arrival{inst.capacity(u), inst.parents(u).to_vector()});
  return arrivals;
}

}  // namespace osp::seedref
