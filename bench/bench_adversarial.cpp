// E4+E5 — the empirical competitive-ratio dashboard over the adversarial
// scenario families, written to BENCH_adversarial.json and gated by
// scripts/check_bench_json.py.
//
// For every cell of the adversarial/* catalog sweeps this measures every
// deterministic baseline AND randPr against a certified offline
// denominator (api::opt_denominator: exact branch & bound where m
// permits, the verified planted witness otherwise, with the LP relaxation
// as an upper bracket where the simplex stays tractable):
//
//   theorem3  — the adaptive adversary run against each deterministic
//               policy (benefit <= 1 while opt >= sigma^(k-1)); randPr
//               replays the greedy-first transcript obliviously and
//               escapes the trap — the paper's separation, measured;
//   weak-lb   — the Section 4.2 t^2-set distribution (ratio Omega(t/log t)
//               for every online algorithm);
//   lemma9    — the Figure 1 four-stage gadget distribution (everybody
//               earns polylog(ell) while opt >= ell^3).
//
// The artifact carries NO wall-clock fields: rerunning the bench
// regenerates BENCH_adversarial.json byte for byte, so the committed
// dashboard is itself a determinism check.
#include <algorithm>
#include <iostream>
#include <limits>

#include "algos/baselines.hpp"
#include "algos/offline.hpp"
#include "api/adversarial.hpp"
#include "bench_common.hpp"
#include "core/bounds.hpp"
#include "core/game.hpp"
#include "design/lower_bounds.hpp"

namespace osp {
namespace {

double safe_ratio(double opt, double mean) {
  return mean > 0 ? opt / mean : opt;
}

/// Running aggregates one family sweep folds into its summary row.
struct FamilySummary {
  std::size_t cells = 0;
  std::size_t policies = 0;
  double det_alg_max = 0;  // largest deterministic mean benefit seen
  double det_ratio_min = std::numeric_limits<double>::infinity();
  double randpr_margin_min = std::numeric_limits<double>::infinity();
  bool gate_met = true;

  void fold_cell(double det_max_mean, double det_min_ratio,
                 double randpr_mean) {
    ++cells;
    det_alg_max = std::max(det_alg_max, det_max_mean);
    det_ratio_min = std::min(det_ratio_min, det_min_ratio);
    randpr_margin_min =
        std::min(randpr_margin_min, randpr_mean - det_max_mean);
  }

  void emit(api::JsonSink& json, const std::string& family) const {
    json.write(api::Row{}
                   .add("sweep", "summary")
                   .add("family", family)
                   .add("cells", cells)
                   .add("policies", policies)
                   .add("det_alg_max", det_alg_max)
                   .add("det_ratio_min", det_ratio_min)
                   .add("randpr_margin_min", randpr_margin_min)
                   .add("gate", gate_met ? "MET" : "MISSED"));
  }
};

void theorem3_sweep(api::JsonSink& json) {
  std::cout << "-- Theorem 3: adaptive adversary, every deterministic "
               "baseline trapped --\n";
  Table table({"sigma", "k", "opt", "det max benefit", "det ratio min",
               "E[randPr]", "randPr ratio", "Thm3 bound"});
  // randPr's streams: master(11), split keyed on the cell's (sigma, k) —
  // the seed repo's E4 control, kept so the rows stay comparable.
  Rng master(11);
  FamilySummary summary;
  summary.policies = make_deterministic_baselines().size() + 1;
  for (const api::ScenarioSpec& cell :
       api::expand(api::scenarios().at("adversarial/theorem3"))) {
    const std::size_t sigma = cell.sigma;
    const std::size_t k = cell.k;
    const double bound = theorem3_lower_bound(sigma, k);

    double det_max = 0;
    double det_ratio_min = std::numeric_limits<double>::infinity();
    auto algs = make_deterministic_baselines();
    for (auto& alg : algs) {
      AdaptiveAdversaryResult r = run_theorem3_adversary(*alg, sigma, k);
      OSP_REQUIRE_MSG(is_feasible(r.transcript, r.witness),
                      "theorem3 witness infeasible vs " << alg->name());
      const api::OptDenominator den =
          api::opt_denominator(r.transcript, r.opt_lower_bound);
      const double benefit = r.alg_outcome.benefit;
      const double ratio = safe_ratio(den.opt, benefit);
      det_max = std::max(det_max, benefit);
      det_ratio_min = std::min(det_ratio_min, ratio);
      summary.gate_met = summary.gate_met && benefit <= 1.0 + 1e-9 &&
                         den.opt + 1e-9 >= r.opt_lower_bound;
      json.write(api::Row{}
                     .add("sweep", "theorem3")
                     .add("scenario", cell.display_label())
                     .add("sigma", sigma)
                     .add("k", k)
                     .add("policy", alg->name())
                     .add("deterministic", true)
                     .add("trials", 1)
                     .add("alg_mean", benefit)
                     .add("alg_ci95", 0.0)
                     .add("witness", r.opt_lower_bound)
                     .add("opt", den.opt)
                     .add("opt_exact", den.opt_exact)
                     .add("lp_upper", den.lp_upper)
                     .add("ratio", ratio)
                     .add("bound", bound));
    }

    // randPr replays the greedy-first transcript obliviously (the E4
    // control): build_adversarial_cell pins that victim.
    Rng unused(0);  // kTheorem3 construction draws nothing from it
    api::AdversarialCell adv = api::build_adversarial_cell(cell, unused);
    const api::OptDenominator den =
        api::opt_denominator(adv.instance, adv.witness_value);
    Rng runs = master.split(sigma * 10 + k);
    RunningStat rp =
        bench::measure_randpr(adv.instance, runs, cell.default_trials);
    const double rp_ratio = safe_ratio(den.opt, rp.mean());
    summary.gate_met = summary.gate_met && rp.mean() > det_max;
    summary.fold_cell(det_max, det_ratio_min, rp.mean());
    json.write(api::Row{}
                   .add("sweep", "theorem3")
                   .add("scenario", cell.display_label())
                   .add("sigma", sigma)
                   .add("k", k)
                   .add("policy", "randPr")
                   .add("deterministic", false)
                   .add("trials", cell.default_trials)
                   .add("alg_mean", rp.mean())
                   .add("alg_ci95", rp.ci95_halfwidth())
                   .add("witness", adv.witness_value)
                   .add("opt", den.opt)
                   .add("opt_exact", den.opt_exact)
                   .add("lp_upper", den.lp_upper)
                   .add("ratio", rp_ratio)
                   .add("bound", bound));
    table.row({fmt(sigma), fmt(k), fmt(den.opt, 1), fmt(det_max, 1),
               fmt_ratio(det_ratio_min), bench::fmt_mean_ci(rp),
               fmt_ratio(rp_ratio), fmt(bound, 1)});
  }
  summary.emit(json, "theorem3");
  table.print(std::cout);
  std::cout << "Expected shape: every deterministic baseline stuck at "
               "benefit <= 1 (ratio = the Thm3 bound); randPr clears the "
               "deterministic ceiling on every cell.\n\n";
}

/// Shared driver for the two distribution families (weak-lb, lemma9):
/// `draws` fresh instances per cell, every policy measured on the same
/// draws, the denominator aggregated per draw through opt_denominator.
void distribution_sweep(api::JsonSink& json, const std::string& sweep_key,
                        const std::string& scenario_name,
                        std::uint64_t master_seed,
                        std::uint64_t instance_key_base,
                        std::uint64_t randpr_key_base,
                        std::size_t lp_row_limit) {
  Table table({"cell", "opt", "det max benefit", "det ratio min",
               "E[randPr]", "randPr ratio", "bound"});
  Rng master(master_seed);
  FamilySummary summary;
  summary.policies = make_deterministic_baselines().size() + 1;
  for (const api::ScenarioSpec& cell :
       api::expand(api::scenarios().at(scenario_name))) {
    const int draws = cell.default_trials;
    const std::size_t shape =
        cell.family == api::ScenarioFamily::kWeakLb ? cell.t : cell.ell;
    const std::size_t num_det = make_deterministic_baselines().size();
    std::vector<RunningStat> det_stats(num_det);
    std::vector<std::string> det_names(num_det);
    RunningStat randpr_stat, opt_stat, lp_stat;
    bool all_exact = true;
    bool all_lp = true;
    double witness_value = 0;
    double bound = 0;
    for (int d = 0; d < draws; ++d) {
      const std::uint64_t key =
          instance_key_base * shape + static_cast<std::uint64_t>(d);
      Rng rng = master.split(key);
      api::AdversarialCell adv = api::build_adversarial_cell(cell, rng);
      witness_value = adv.witness_value;
      bound = adv.bound;
      const api::OptDenominator den = api::opt_denominator(
          adv.instance, adv.witness_value, lp_row_limit);
      opt_stat.add(den.opt);
      all_exact = all_exact && den.opt_exact;
      if (den.lp_upper > 0) lp_stat.add(den.lp_upper);
      else all_lp = false;

      auto algs = make_deterministic_baselines();
      for (std::size_t i = 0; i < num_det; ++i) {
        det_names[i] = algs[i]->name();
        det_stats[i].add(play(adv.instance, *algs[i]).benefit);
      }
      RandPr rp(master.split(randpr_key_base + key));
      randpr_stat.add(play(adv.instance, rp).benefit);
    }
    const double opt = opt_stat.mean();
    const double lp_upper = all_lp ? lp_stat.mean() : 0.0;

    double det_max = 0;
    double det_ratio_min = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < num_det; ++i) {
      const double mean = det_stats[i].mean();
      const double ratio = safe_ratio(opt, mean);
      det_max = std::max(det_max, mean);
      det_ratio_min = std::min(det_ratio_min, ratio);
      json.write(api::Row{}
                     .add("sweep", sweep_key)
                     .add("scenario", cell.display_label())
                     .add(sweep_key == "weaklb" ? "t" : "ell", shape)
                     .add("policy", det_names[i])
                     .add("deterministic", true)
                     .add("trials", draws)
                     .add("alg_mean", mean)
                     .add("alg_ci95", det_stats[i].ci95_halfwidth())
                     .add("witness", witness_value)
                     .add("opt", opt)
                     .add("opt_exact", all_exact)
                     .add("lp_upper", lp_upper)
                     .add("ratio", ratio)
                     .add("bound", bound));
    }
    const double rp_ratio = safe_ratio(opt, randpr_stat.mean());
    summary.gate_met = summary.gate_met && det_ratio_min >= 1.0;
    summary.fold_cell(det_max, det_ratio_min, randpr_stat.mean());
    json.write(api::Row{}
                   .add("sweep", sweep_key)
                   .add("scenario", cell.display_label())
                   .add(sweep_key == "weaklb" ? "t" : "ell", shape)
                   .add("policy", "randPr")
                   .add("deterministic", false)
                   .add("trials", draws)
                   .add("alg_mean", randpr_stat.mean())
                   .add("alg_ci95", randpr_stat.ci95_halfwidth())
                   .add("witness", witness_value)
                   .add("opt", opt)
                   .add("opt_exact", all_exact)
                   .add("lp_upper", lp_upper)
                   .add("ratio", rp_ratio)
                   .add("bound", bound));
    table.row({cell.display_label(), fmt(opt, 2), fmt(det_max, 2),
               fmt_ratio(det_ratio_min), bench::fmt_mean_ci(randpr_stat),
               fmt_ratio(rp_ratio), fmt(bound, 2)});
  }
  summary.emit(json, sweep_key);
  table.print(std::cout);
}

}  // namespace
}  // namespace osp

int main() {
  osp::bench::banner(
      "E4+E5 / competitive-ratio dashboard (BENCH_adversarial.json)",
      "Every deterministic baseline and randPr measured against a "
      "certified offline denominator on the paper's three worst-case "
      "constructions.  Deterministic policies are trapped at benefit <= 1 "
      "on theorem3 (ratio = sigma^(k-1)); everyone is polylog on lemma9; "
      "the warm-up gadget costs Omega(t/log t).");
  osp::api::JsonSink json("adversarial", osp::bench::session().threads());
  osp::theorem3_sweep(json);

  std::cout << "-- Section 4.2 warm-up (t^2 sets, ratio Omega(t/log t)) "
               "--\n";
  // The seed repo's E5 warm-up streams: master(314159), instance split
  // t*1000+d, randPr split 50000 + t*1000+d.
  osp::distribution_sweep(json, "weaklb", "adversarial/weak-lb", 314159,
                          1000, 50000, osp::api::kDefaultLpRowLimit);
  std::cout << "Expected shape: every policy's ratio grows with t roughly "
               "like t/log t (survivors are O(log t) of the t planted "
               "sets).\n\n";

  std::cout << "-- Lemma 9 distribution (Figure 1 construction) --\n";
  // The seed repo's E5 Lemma 9 streams for ell <= 4 (master(271828),
  // instance split ell*100+d, randPr split 7000 + the same key); ell = 5
  // is re-baselined from 6 draws to the catalog's 12, and ell = 7 is
  // dropped from the sweep (runtime).  The dense simplex returns a
  // nonsense objective on this gadget past ell = 2, so the LP row limit is
  // pinned below the ell = 3 tableau size.  A cell's instance shape (sets,
  // elements, kmax, sigma max) is what
  // `osp_cli gen adversarial/lemma9 --ell <ell> | osp_cli stats -` prints.
  osp::distribution_sweep(json, "lemma9", "adversarial/lemma9", 271828,
                          100, 7000, 200);
  std::cout << "Expected shape: E[alg] stays polylog(ell) for every "
               "policy while opt grows like ell^3, so every ratio grows "
               "polynomially, tracking the Thm2 expression.\n";
  return 0;
}
