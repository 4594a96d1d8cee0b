// E6 — Theorem 4: variable capacities and the adjusted load ν = σ/b.
//
// Two sweeps on random instances:
//  (a) capacities drawn from [1, bmax] for growing bmax — the adjusted
//      load falls, and the measured ratio should fall with it while the
//      Theorem 4 expression tracks from above;
//  (b) fixed instance layout, uniform capacity b for all elements —
//      isolates the 1/b effect cleanly.
#include <iostream>

#include "algos/offline.hpp"
#include "bench_common.hpp"
#include "core/bounds.hpp"

namespace osp {
namespace {

void random_capacity_sweep(osp::api::JsonSink& json) {
  std::cout << "-- capacities U[1, bmax] --\n";
  Table table({"m", "n", "k", "bmax", "nubar", "opt", "E[alg]", "ratio",
               "Thm4 shape", "Thm4 bound"});
  Rng master(616);
  // Swept cap-max values come from the "capacity/random" catalog entry;
  // the split keys derive from the cell values, preserving the
  // historical streams.
  for (const api::ScenarioSpec& cell :
       api::expand(api::scenarios().at("capacity/random"))) {
    const int trials = cell.default_trials;
    const std::size_t bmax = cell.cap_max;
    Rng gen = master.split(bmax);
    Instance inst = api::build_instance(cell, gen);
    InstanceStats st = inst.stats();
    OfflineResult opt = exact_optimum(inst);
    Rng runs = master.split(100 + bmax);
    RunningStat alg = bench::measure_randpr(inst, runs, trials);
    double ratio = alg.mean() > 0 ? opt.value / alg.mean() : 0;
    table.row({fmt(cell.m), fmt(inst.num_elements()),
               fmt(cell.k), fmt(bmax), fmt(st.nu_avg, 2),
               fmt(opt.value, 1), bench::fmt_mean_ci(alg), fmt_ratio(ratio),
               fmt(theorem4_shape(st), 2), fmt(theorem4_bound(st), 1)});
    json.write(api::Row{}
                   .add("sweep", "random_capacity")
                   .add("m", cell.m)
                   .add("n", inst.num_elements())
                   .add("k", cell.k)
                   .add("bmax", bmax)
                   .add("nu_avg", st.nu_avg)
                   .add("opt", opt.value)
                   .add("alg_mean", alg.mean())
                   .add("ratio", ratio)
                   .add("thm4_shape", theorem4_shape(st))
                   .add("thm4_bound", theorem4_bound(st)));
  }
  table.print(std::cout);
  std::cout << "Expected shape: nubar and the measured ratio fall as bmax "
               "grows; Thm4 stays above the measured ratio (with a lot of "
               "slack — the 16e constant is loose).\n\n";
}

void uniform_capacity_sweep(osp::api::JsonSink& json) {
  std::cout << "-- same layout, uniform capacity b --\n";
  Table table({"b", "nubar", "opt", "E[alg]", "ratio", "Thm4 shape"});
  Rng master(617);

  // One fixed set system; only capacities change.  The base layout is the
  // "capacity/uniform" catalog entry and the capacity ladder is its sweep
  // axis.
  const api::ScenarioSpec& layout = api::scenarios().at("capacity/uniform");
  Rng gen = master.split(1);
  Instance base = api::build_instance(layout, gen);

  for (const api::ScenarioSpec& cell : api::expand(layout)) {
    const int trials = cell.default_trials;
    const Capacity b = cell.capacity;
    InstanceBuilder builder;
    for (SetId s = 0; s < base.num_sets(); ++s)
      builder.add_set(base.weight(s));
    for (ElementId u = 0; u < base.num_elements(); ++u)
      builder.add_element(base.arrival(u).parents.to_vector(), b);
    Instance inst = builder.build();
    InstanceStats st = inst.stats();
    OfflineResult opt = exact_optimum(inst);
    Rng runs = master.split(100 + b);
    RunningStat alg = bench::measure_randpr(inst, runs, trials);
    double ratio = alg.mean() > 0 ? opt.value / alg.mean() : 0;
    table.row({fmt(b), fmt(st.nu_avg, 2), fmt(opt.value, 1),
               bench::fmt_mean_ci(alg), fmt_ratio(ratio),
               fmt(theorem4_shape(st), 2)});
    json.write(api::Row{}
                   .add("sweep", "uniform_capacity")
                   .add("b", b)
                   .add("nu_avg", st.nu_avg)
                   .add("opt", opt.value)
                   .add("alg_mean", alg.mean())
                   .add("ratio", ratio)
                   .add("thm4_shape", theorem4_shape(st)));
  }
  table.print(std::cout);
  std::cout << "Expected shape: doubling b halves nubar; the measured "
               "ratio falls toward 1 as capacity saturates demand.\n";
}

}  // namespace
}  // namespace osp

int main() {
  osp::bench::banner(
      "E6 / Theorem 4 (variable capacity, adjusted load)",
      "Competitive ratio tracks kmax*sqrt(avg(nu*sigma$)/avg(sigma$)) as "
      "capacities grow.");
  osp::api::JsonSink json("capacity", osp::bench::session().threads());
  osp::random_capacity_sweep(json);
  osp::uniform_capacity_sweep(json);
  return 0;
}
