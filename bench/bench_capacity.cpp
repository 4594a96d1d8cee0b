// E6 — Theorem 4: variable capacities and the adjusted load ν = σ/b.
//
// Two sweeps on random instances:
//  (a) capacities drawn from [1, bmax] for growing bmax — the adjusted
//      load falls, and the measured ratio should fall with it while the
//      Theorem 4 expression tracks from above;
//  (b) fixed instance layout, uniform capacity b for all elements —
//      isolates the 1/b effect cleanly.
#include <iostream>

#include "bench_common.hpp"
#include "core/bounds.hpp"

namespace osp {
namespace {

void random_capacity_sweep(api::JsonSink& json) {
  std::cout << "-- capacities U[1, bmax] --\n";
  api::Session session;
  api::TableSink table;
  session.attach(json);
  session.attach(table);
  Rng master(616);
  // Swept cap-max values come from the "capacity/random" catalog entry;
  // the split keys derive from the cell values, preserving the
  // historical streams.
  for (const api::ScenarioSpec& cell :
       api::expand(api::scenarios().at("capacity/random"))) {
    const std::size_t bmax = cell.cap_max;
    Rng gen = master.split(bmax);
    Instance inst = api::build_instance(cell, gen);
    InstanceStats st = inst.stats();
    Rng runs = master.split(100 + bmax);
    const api::RatioCell r = session.measure_ratio(
        inst, api::policies().at("randpr").make, runs, cell.default_trials);
    session.emit(api::Row{}
                     .add("sweep", "random_capacity")
                     .add("m", cell.m)
                     .add("n", inst.num_elements())
                     .add("k", cell.k)
                     .add("bmax", bmax)
                     .add("nu_avg", st.nu_avg)
                     .add("opt", r.opt)
                     .add("alg_mean", r.alg.mean())
                     .add("ratio", r.ratio)
                     .add("thm4_shape", theorem4_shape(st))
                     .add("thm4_bound", theorem4_bound(st)));
  }
  table.print(std::cout);
  std::cout << "Expected shape: nu_avg and the measured ratio fall as bmax "
               "grows; thm4_bound stays above the measured ratio (with a "
               "lot of slack — the 16e constant is loose).\n\n";
}

void uniform_capacity_sweep(api::JsonSink& json) {
  std::cout << "-- same layout, uniform capacity b --\n";
  api::Session session;
  api::TableSink table;
  session.attach(json);
  session.attach(table);
  Rng master(617);

  // One fixed set system; only capacities change.  The base layout is the
  // "capacity/uniform" catalog entry and the capacity ladder is its sweep
  // axis.
  const api::ScenarioSpec& layout = api::scenarios().at("capacity/uniform");
  Rng gen = master.split(1);
  Instance base = api::build_instance(layout, gen);

  for (const api::ScenarioSpec& cell : api::expand(layout)) {
    const Capacity b = cell.capacity;
    InstanceBuilder builder;
    for (SetId s = 0; s < base.num_sets(); ++s)
      builder.add_set(base.weight(s));
    for (ElementId u = 0; u < base.num_elements(); ++u)
      builder.add_element(base.arrival(u).parents.to_vector(), b);
    Instance inst = builder.build();
    InstanceStats st = inst.stats();
    Rng runs = master.split(100 + b);
    const api::RatioCell r = session.measure_ratio(
        inst, api::policies().at("randpr").make, runs, cell.default_trials);
    session.emit(api::Row{}
                     .add("sweep", "uniform_capacity")
                     .add("b", b)
                     .add("nu_avg", st.nu_avg)
                     .add("opt", r.opt)
                     .add("alg_mean", r.alg.mean())
                     .add("ratio", r.ratio)
                     .add("thm4_shape", theorem4_shape(st)));
  }
  table.print(std::cout);
  std::cout << "Expected shape: doubling b halves nu_avg; the measured "
               "ratio falls toward 1 as capacity saturates demand.\n";
}

}  // namespace
}  // namespace osp

int main() {
  return osp::bench::guarded_main([] {
    osp::bench::banner(
        "E6 / Theorem 4 (variable capacity, adjusted load)",
        "Competitive ratio tracks kmax*sqrt(avg(nu*sigma$)/avg(sigma$)) as "
        "capacities grow.");
    osp::api::JsonSink json("capacity", osp::bench::session().threads());
    osp::random_capacity_sweep(json);
    osp::uniform_capacity_sweep(json);
  });
}
