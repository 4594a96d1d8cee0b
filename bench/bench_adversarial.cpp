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

  void emit(api::Session& summaries, const std::string& family) const {
    summaries.emit(api::Row{}
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

void theorem3_sweep(api::JsonSink& json, api::Session& summaries) {
  std::cout << "-- Theorem 3: adaptive adversary, every deterministic "
               "baseline trapped --\n";
  api::Session session;
  api::TableSink table;
  session.attach(json);
  session.attach(table);
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
    // One row per policy, against that policy's own transcript.
    auto emit = [&](const std::string& policy, bool deterministic, int trials,
                    double mean, double ci95, double witness,
                    const api::OptDenominator& den) {
      session.emit(api::Row{}
                       .add("sweep", "theorem3")
                       .add("scenario", cell.display_label())
                       .add("sigma", sigma)
                       .add("k", k)
                       .add("policy", policy)
                       .add("deterministic", deterministic)
                       .add("trials", trials)
                       .add("alg_mean", mean)
                       .add("alg_ci95", ci95)
                       .add("witness", witness)
                       .add("opt", den.opt)
                       .add("opt_exact", den.opt_exact)
                       .add("lp_upper", den.lp_upper)
                       .add("ratio", api::competitive_ratio(den.opt, mean))
                       .add("bound", bound));
    };

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
      const double ratio = api::competitive_ratio(den.opt, benefit);
      det_max = std::max(det_max, benefit);
      det_ratio_min = std::min(det_ratio_min, ratio);
      summary.gate_met = summary.gate_met && benefit <= 1.0 + 1e-9 &&
                         den.opt + 1e-9 >= r.opt_lower_bound;
      emit(alg->name(), true, 1, benefit, 0.0, r.opt_lower_bound, den);
    }

    // randPr replays the greedy-first transcript obliviously (the E4
    // control): build_adversarial_cell pins that victim.
    Rng unused(0);  // kTheorem3 construction draws nothing from it
    api::AdversarialCell adv = api::build_adversarial_cell(cell, unused);
    const api::OptDenominator den =
        api::opt_denominator(adv.instance, adv.witness_value);
    Rng runs = master.split(sigma * 10 + k);
    RunningStat rp =
        session.measure(adv.instance, api::policies().at("randpr").make,
                        runs, cell.default_trials);
    summary.gate_met = summary.gate_met && rp.mean() > det_max;
    summary.fold_cell(det_max, det_ratio_min, rp.mean());
    emit("randPr", false, cell.default_trials, rp.mean(),
         rp.ci95_halfwidth(), adv.witness_value, den);
  }
  table.print(std::cout);
  summary.emit(summaries, "theorem3");
  std::cout << "Expected shape: every deterministic baseline stuck at "
               "benefit <= 1 (ratio = the Thm3 bound); randPr clears the "
               "deterministic ceiling on every cell.\n\n";
}

/// Shared driver for the two distribution families (weak-lb, lemma9):
/// `draws` fresh instances per cell, every policy measured on the same
/// draws, the denominator aggregated per draw through opt_denominator.
void distribution_sweep(api::JsonSink& json, api::Session& summaries,
                        const std::string& sweep_key,
                        const std::string& scenario_name,
                        std::uint64_t master_seed,
                        std::uint64_t instance_key_base,
                        std::uint64_t randpr_key_base,
                        std::size_t lp_row_limit) {
  api::Session session;
  api::TableSink table;
  session.attach(json);
  session.attach(table);
  Rng master(master_seed);
  FamilySummary summary;
  summary.policies = make_deterministic_baselines().size() + 1;
  for (const api::ScenarioSpec& cell :
       api::expand(api::scenarios().at(scenario_name))) {
    const int draws = cell.default_trials;
    const std::size_t shape =
        cell.family == api::ScenarioFamily::kWeakLb ? cell.t : cell.ell;
    // One row per policy: the deterministic baselines, then randPr.
    std::vector<std::string> names;
    for (const auto& alg : make_deterministic_baselines())
      names.push_back(alg->name());
    const std::size_t num_det = names.size();
    names.push_back("randPr");
    std::vector<RunningStat> stats(names.size());
    RunningStat opt_stat, lp_stat;
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
      for (std::size_t i = 0; i < num_det; ++i)
        stats[i].add(play(adv.instance, *algs[i]).benefit);
      RandPr rp(master.split(randpr_key_base + key));
      stats[num_det].add(play(adv.instance, rp).benefit);
    }
    const double opt = opt_stat.mean();
    const double lp_upper = all_lp ? lp_stat.mean() : 0.0;

    double det_max = 0;
    double det_ratio_min = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const double mean = stats[i].mean();
      const double ratio = api::competitive_ratio(opt, mean);
      if (i < num_det) {
        det_max = std::max(det_max, mean);
        det_ratio_min = std::min(det_ratio_min, ratio);
      }
      session.emit(api::Row{}
                       .add("sweep", sweep_key)
                       .add("scenario", cell.display_label())
                       .add(sweep_key == "weaklb" ? "t" : "ell", shape)
                       .add("policy", names[i])
                       .add("deterministic", i < num_det)
                       .add("trials", draws)
                       .add("alg_mean", mean)
                       .add("alg_ci95", stats[i].ci95_halfwidth())
                       .add("witness", witness_value)
                       .add("opt", opt)
                       .add("opt_exact", all_exact)
                       .add("lp_upper", lp_upper)
                       .add("ratio", ratio)
                       .add("bound", bound));
    }
    summary.gate_met = summary.gate_met && det_ratio_min >= 1.0;
    summary.fold_cell(det_max, det_ratio_min, stats[num_det].mean());
  }
  table.print(std::cout);
  summary.emit(summaries, sweep_key);
}

}  // namespace
}  // namespace osp

namespace {

void run_dashboard() {
  osp::bench::banner(
      "E4+E5 / competitive-ratio dashboard (BENCH_adversarial.json)",
      "Every deterministic baseline and randPr measured against a "
      "certified offline denominator on the paper's three worst-case "
      "constructions.  Deterministic policies are trapped at benefit <= 1 "
      "on theorem3 (ratio = sigma^(k-1)); everyone is polylog on lemma9; "
      "the warm-up gadget costs Omega(t/log t).");
  osp::api::JsonSink json("adversarial", osp::bench::session().threads());
  // Each family's summary row follows its sweep's rows in the artifact;
  // the console prints the three together at the end.
  osp::api::Session summaries;
  osp::api::TableSink summary_table;
  summaries.attach(json);
  summaries.attach(summary_table);
  osp::theorem3_sweep(json, summaries);

  std::cout << "-- Section 4.2 warm-up (t^2 sets, ratio Omega(t/log t)) "
               "--\n";
  // The seed repo's E5 warm-up streams: master(314159), instance split
  // t*1000+d, randPr split 50000 + t*1000+d.
  osp::distribution_sweep(json, summaries, "weaklb", "adversarial/weak-lb",
                          314159, 1000, 50000, osp::api::kDefaultLpRowLimit);
  std::cout << "Expected shape: every policy's ratio grows with t roughly "
               "like t/log t (survivors are O(log t) of the t planted "
               "sets).\n\n";

  std::cout << "-- Lemma 9 distribution (Figure 1 construction) --\n";
  // The seed repo's E5 Lemma 9 streams for ell <= 4 (master(271828),
  // instance split ell*100+d, randPr split 7000 + the same key); ell = 5
  // is re-baselined from 6 draws to the catalog's 12, and ell = 7 is
  // dropped from the sweep (runtime).  The dense simplex stops at its
  // pivot limit without an optimum on the ell = 3 gadget, so the LP row
  // limit is pinned below the ell = 3 tableau size.  A cell's instance
  // shape (sets, elements, kmax, sigma max) is what
  // `osp_cli gen adversarial/lemma9 --ell <ell> | osp_cli stats -` prints.
  osp::distribution_sweep(json, summaries, "lemma9", "adversarial/lemma9",
                          271828, 100, 7000, 200);
  std::cout << "Expected shape: E[alg] stays polylog(ell) for every "
               "policy while opt grows like ell^3, so every ratio grows "
               "polynomially, tracking the Thm2 expression.\n\n";

  std::cout << "-- per-family summary (every gate must read MET) --\n";
  summary_table.print(std::cout);
}

}  // namespace

int main() { return osp::bench::guarded_main(run_dashboard); }
