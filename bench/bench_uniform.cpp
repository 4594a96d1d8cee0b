// E3 — the refined bounds for uniform structure:
//   Theorem 5   (uniform set size k):        ratio <= k·avg(σ²)/avg(σ)²
//   Theorem 6   (uniform load σ):            ratio <= k̄·sqrt(σ)
//   Corollary 7 (uniform size AND load):     ratio <= k  (σ-independent!)
//
// The Corollary 7 table is the paper's headline special case: on
// bi-regular instances the measured ratio must stay near/below k and stay
// FLAT as σ grows, while the general bound kmax·sqrt(σmax) keeps rising.
//
// Every sweep's rows go once through a Session into BENCH_uniform.json and
// the sweep's console table.  The swept cells live in the scenario
// catalog; the Rng split keys derive from the cell values, so the
// declarative sweeps reproduce the historical loops' streams bit for bit.
#include <iostream>

#include "bench_common.hpp"
#include "core/bounds.hpp"

namespace osp {
namespace {

void corollary7_sweep(api::JsonSink& json) {
  std::cout << "-- Corollary 7: bi-regular instances, k = 3 fixed, sigma "
               "rising --\n";
  api::Session session;
  api::TableSink table;
  session.attach(json);
  session.attach(table);
  Rng master(31337);
  for (const api::ScenarioSpec& cell :
       api::expand(api::scenarios().at("uniform/corollary7"))) {
    Rng gen = master.split(cell.sigma);
    Instance inst = api::build_instance(cell, gen);
    InstanceStats st = inst.stats();
    Rng runs = master.split(100 + cell.sigma);
    const api::RatioCell r = session.measure_ratio(
        inst, api::policies().at("randpr").make, runs, cell.default_trials);
    session.emit(api::Row{}
                     .add("sweep", "corollary7")
                     .add("m", cell.m)
                     .add("k", cell.k)
                     .add("sigma", cell.sigma)
                     .add("opt", r.opt)
                     .add("alg_mean", r.alg.mean())
                     .add("alg_ci95", r.alg.ci95_halfwidth())
                     .add("ratio", r.ratio)
                     .add("cor7_bound", corollary7_bound(st))
                     .add("cor6_bound", corollary6_bound(st)));
  }
  table.print(std::cout);
  std::cout << "Expected shape: ratio column stays flat near or below k=3 "
               "while cor6_bound grows like sqrt(sigma).\n\n";
}

void theorem5_sweep(api::JsonSink& json) {
  std::cout << "-- Theorem 5: uniform size k, loads vary (random "
               "instances) --\n";
  api::Session session;
  api::TableSink table;
  session.attach(json);
  session.attach(table);
  Rng master(999);
  for (const api::ScenarioSpec& cell :
       api::expand(api::scenarios().at("uniform/theorem5"))) {
    Rng gen = master.split(cell.k);
    Instance inst = api::build_instance(cell, gen);
    InstanceStats st = inst.stats();
    Rng runs = master.split(100 + cell.k);
    const api::RatioCell r = session.measure_ratio(
        inst, api::policies().at("randpr").make, runs, cell.default_trials);
    session.emit(api::Row{}
                     .add("sweep", "theorem5")
                     .add("m", cell.m)
                     .add("n", inst.num_elements())
                     .add("k", cell.k)
                     .add("dispersion",
                          st.sigma_sq_avg / (st.sigma_avg * st.sigma_avg))
                     .add("opt", r.opt)
                     .add("alg_mean", r.alg.mean())
                     .add("ratio", r.ratio)
                     .add("thm5_bound", theorem5_bound(st)));
  }
  table.print(std::cout);
  std::cout << "Expected shape: ratio below thm5_bound; the bound scales "
               "with k times the load dispersion.\n\n";
}

void theorem6_sweep(api::JsonSink& json) {
  std::cout << "-- Theorem 6: uniform load sigma, sizes vary --\n";
  api::Session session;
  api::TableSink table;
  session.attach(json);
  session.attach(table);
  Rng master(4242);
  for (const api::ScenarioSpec& cell :
       api::expand(api::scenarios().at("uniform/theorem6"))) {
    Rng gen = master.split(cell.sigma);
    Instance inst = api::build_instance(cell, gen);
    InstanceStats st = inst.stats();
    Rng runs = master.split(100 + cell.sigma);
    const api::RatioCell r = session.measure_ratio(
        inst, api::policies().at("randpr").make, runs, cell.default_trials);
    session.emit(api::Row{}
                     .add("sweep", "theorem6")
                     .add("m", cell.m)
                     .add("n", inst.num_elements())
                     .add("sigma", cell.sigma)
                     .add("k_avg", st.k_avg)
                     .add("opt", r.opt)
                     .add("alg_mean", r.alg.mean())
                     .add("ratio", r.ratio)
                     .add("thm6_bound", theorem6_bound(st)));
  }
  table.print(std::cout);
  std::cout << "Expected shape: ratio below kbar*sqrt(sigma), growing "
               "roughly with sqrt(sigma).\n";
}

}  // namespace
}  // namespace osp

int main() {
  return osp::bench::guarded_main([] {
    osp::bench::banner(
        "E3 / Theorems 5, 6 and Corollary 7",
        "Refined bounds under uniform structure; the key signature is the "
        "sigma-INDEPENDENCE of the ratio for uniform size+load (Cor 7).");
    osp::api::JsonSink json("uniform", osp::bench::session().threads());
    osp::corollary7_sweep(json);
    osp::theorem5_sweep(json);
    osp::theorem6_sweep(json);
  });
}
