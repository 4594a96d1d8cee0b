// E2 — Theorem 1 and Corollary 6: the competitive ratio of randPr is at
// most kmax·sqrt(avg(σ·σ$)/avg(σ$)) <= kmax·sqrt(σmax).
//
// Random instance families sweeping k and the density (which drives σ).
// For each family we report the measured ratio opt / E[w(alg)] next to
// both bound expressions; the measured column must stay below both, and
// should grow with k and sqrt(σ).
#include <iostream>

#include "bench_common.hpp"
#include "core/bounds.hpp"

namespace osp {
namespace {

void sweep(bool weighted) {
  api::Session session;
  api::TableSink table(2);
  session.attach(table);
  Rng master(weighted ? 777 : 555);

  // The eight (m, n, k) shapes live in the random/theorem1 catalog entry;
  // the Rng split keys derive from the cell values (m*100+k, 909+m), so
  // the declarative sweep reproduces the historical loop's streams bit
  // for bit.  The weighted pass overrides the weight model in place — the
  // generator consumes the same stream either way.
  for (api::ScenarioSpec cell :
       api::expand(api::scenarios().at("random/theorem1"))) {
    if (weighted) cell.weights = WeightModel::uniform(1, 8);
    Rng gen = master.split(cell.m * 100 + cell.k);
    Instance inst = api::build_instance(cell, gen);
    InstanceStats st = inst.stats();
    Rng runs = master.split(909 + cell.m);
    const api::RatioCell r = session.measure_ratio(
        inst, api::policies().at("randpr").make, runs, cell.default_trials);
    session.emit(api::Row{}
                     .add("m", cell.m)
                     .add("n", inst.num_elements())
                     .add("k", cell.k)
                     .add("smax", st.sigma_max)
                     .add("opt", r.opt)
                     .add("alg_mean", r.alg.mean())
                     .add("alg_ci95", r.alg.ci95_halfwidth())
                     .add("l4l5_floor", theorem1_benefit_floor(st, r.opt))
                     .add("ratio", r.ratio)
                     .add("thm1_bound", theorem1_bound(st))
                     .add("cor6_bound", corollary6_bound(st)));
  }
  table.print(std::cout);
}

void run() {
  bench::banner(
      "E2 / Theorem 1 + Corollary 6",
      "Measured competitive ratio of randPr vs the proven bounds on random "
      "instances (top: unweighted, bottom: weights U[1,8]).  opt is exact "
      "(branch & bound).  Expect ratio <= thm1_bound <= cor6_bound "
      "everywhere, ratio growing with k and with density (smax).  "
      "'l4l5_floor' is the max of the Lemma 4 and Lemma 5 lower bounds on "
      "E[alg] — the intermediate quantities of the paper's proof — and "
      "must sit below the measured alg_mean.");

  std::cout << "-- unweighted --\n";
  sweep(false);
  std::cout << "\n-- weighted U[1,8] --\n";
  sweep(true);
  std::cout << "\nExpected shape: measured ratio well under the bounds "
               "(the analysis is worst-case); larger k or smax => larger "
               "ratio.\n";
}

}  // namespace
}  // namespace osp

int main() { return osp::bench::guarded_main(osp::run); }
