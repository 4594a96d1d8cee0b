// The lower-bound constructions, run live:
//
//  1. Theorem 3's adaptive adversary dismantles a deterministic policy of
//     your choice (watch it finish with exactly one completed set while
//     sigma^(k-1) sets were completable).
//  2. A draw from the Lemma 9 / Figure 1 gadget distribution shows that
//     even randPr cannot beat the construction.
//
//   $ ./adversarial_gadget [sigma] [k] [ell]
//
// A bad argument, like any other error, prints "error: <message>" and
// exits 1.
#include <exception>
#include <iostream>

#include "algos/baselines.hpp"
#include "algos/offline.hpp"
#include "api/scenario.hpp"
#include "core/bounds.hpp"
#include "core/rand_pr.hpp"
#include "design/lower_bounds.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) try {
  using namespace osp;
  const std::size_t sigma =
      argc > 1 ? api::parse_size("argument sigma", argv[1]) : 4;
  const std::size_t k = argc > 2 ? api::parse_size("argument k", argv[2]) : 3;
  const std::size_t ell =
      argc > 3 ? api::parse_size("argument ell", argv[3]) : 4;

  std::cout << "== Part 1: Theorem 3 adversary (sigma=" << sigma
            << ", k=" << k << ") ==\n";
  std::cout << "The adversary builds " << sigma << "^" << k
            << " sets of size " << k
            << " adaptively, reacting to each decision.\n\n";

  Table table({"victim", "benefit", "opt >=", "forced ratio"});
  const std::size_t num_algs = make_deterministic_baselines().size();
  for (std::size_t ai = 0; ai < num_algs; ++ai) {
    auto alg = std::move(make_deterministic_baselines()[ai]);
    AdaptiveAdversaryResult r = run_theorem3_adversary(*alg, sigma, k);
    table.row({alg->name(), fmt(r.alg_outcome.benefit, 0),
               fmt(r.opt_lower_bound, 0),
               fmt(theorem3_lower_bound(sigma, k), 0) + "x"});
  }
  table.print(std::cout);

  // Replay the greedy transcript against randPr: randomization escapes.
  GreedyFirst victim;
  AdaptiveAdversaryResult trap = run_theorem3_adversary(victim, sigma, k);
  Rng master(5);
  RunningStat rp;
  for (int t = 0; t < 400; ++t) {
    RandPr alg(master.split(t));
    rp.add(play(trap.transcript, alg).benefit);
  }
  std::cout << "\nrandPr on the same (now oblivious) transcript: E[benefit] "
            << rp.mean() << " +/- " << rp.ci95_halfwidth()
            << "  — randomization breaks the adaptive trap.\n";

  std::cout << "\n== Part 2: Lemma 9 gadget distribution (ell = " << ell
            << ") ==\n";
  Rng rng(17);
  Lemma9Instance li = build_lemma9_instance(ell, rng);
  InstanceStats st = li.instance.stats();
  std::cout << "Drawn instance: " << li.instance.num_sets()
            << " sets (ell^4), " << li.instance.num_elements()
            << " elements, uniform set size " << st.k_max
            << ", sigma_max " << st.sigma_max << ".\n"
            << "Planted disjoint solution: " << li.planted.size()
            << " sets (= ell^3), so opt >= " << li.planted.size() << ".\n\n";

  RunningStat randpr_stat;
  for (int t = 0; t < 40; ++t) {
    RandPr alg(master.split(1000 + t));
    randpr_stat.add(play(li.instance, alg).benefit);
  }
  GreedyFirst greedy;
  double greedy_benefit = play(li.instance, greedy).benefit;

  std::cout << "greedy-first completes " << greedy_benefit
            << " sets; randPr completes " << randpr_stat.mean() << " +/- "
            << randpr_stat.ci95_halfwidth() << " in expectation.\n"
            << "Competitive ratio on this draw >= "
            << static_cast<double>(li.planted.size()) / randpr_stat.mean()
            << "x  (Theorem 2 predicts growth like ell^2 * polylog "
               "factors).\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
