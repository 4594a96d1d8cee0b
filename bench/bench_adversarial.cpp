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

#include "algos/offline.hpp"
#include "api/adversarial.hpp"
#include "bench_common.hpp"
#include "core/bounds.hpp"
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

/// Every family's columns: the registry's six deterministic baselines, in
/// the historical sweep order, then randPr.
std::vector<engine::AlgSpec> family_columns() {
  std::vector<engine::AlgSpec> columns;
  for (const char* spec : {"greedy:first", "greedy:maxw", "greedy:progress",
                           "greedy:srpt", "greedy:density", "round-robin",
                           "randpr"})
    columns.push_back(bench::display_column(spec));
  return columns;
}

/// One policy row of a family sweep: `head` holds the sweep, scenario and
/// shape cells; the policy's benefit over its trials and the cell's
/// denominator follow.
api::Row policy_row(api::Row head, const std::string& policy,
                    bool deterministic, const RunningStat& alg,
                    double witness, const api::OptDenominator& den,
                    double bound) {
  return head.add("policy", policy)
      .add("deterministic", deterministic)
      .add("trials", alg.count())
      .add("alg_mean", alg.mean())
      .add("alg_ci95", alg.ci95_halfwidth())
      .add("witness", witness)
      .add("opt", den.opt)
      .add("opt_exact", den.opt_exact)
      .add("lp_upper", den.lp_upper)
      .add("ratio", api::competitive_ratio(den.opt, alg.mean()))
      .add("bound", bound);
}

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
  const std::vector<engine::AlgSpec> columns = family_columns();
  const std::size_t num_det = columns.size() - 1;
  FamilySummary summary;
  summary.policies = columns.size();
  for (const api::ScenarioSpec& cell :
       api::expand(api::scenarios().at("adversarial/theorem3"))) {
    const std::size_t sigma = cell.sigma;
    const std::size_t k = cell.k;
    const double bound = theorem3_lower_bound(sigma, k);
    const api::Row head = api::Row{}
                              .add("sweep", "theorem3")
                              .add("scenario", cell.display_label())
                              .add("sigma", sigma)
                              .add("k", k);

    // One row per policy, against that policy's own transcript.
    double det_max = 0;
    double det_ratio_min = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < num_det; ++i) {
      const auto alg = columns[i].make(Rng(0));
      AdaptiveAdversaryResult r = run_theorem3_adversary(*alg, sigma, k);
      OSP_REQUIRE_MSG(is_feasible(r.transcript, r.witness),
                      "theorem3 witness infeasible vs " << alg->name());
      const api::OptDenominator den =
          api::opt_denominator(r.transcript, r.opt_lower_bound);
      const double benefit = r.alg_outcome.benefit;
      det_max = std::max(det_max, benefit);
      det_ratio_min =
          std::min(det_ratio_min, api::competitive_ratio(den.opt, benefit));
      summary.gate_met = summary.gate_met && benefit <= 1.0 + 1e-9 &&
                         den.opt + 1e-9 >= r.opt_lower_bound;
      RunningStat one;  // a deterministic policy's one transcript
      one.add(benefit);
      session.emit(policy_row(head, columns[i].name, true, one,
                              r.opt_lower_bound, den, bound));
    }

    // randPr replays the greedy-first transcript obliviously (the E4
    // control): build_adversarial_cell pins that victim.
    Rng unused(0);  // kTheorem3 construction draws nothing from it
    api::AdversarialCell adv = api::build_adversarial_cell(cell, unused);
    const api::OptDenominator den =
        api::opt_denominator(adv.instance, adv.witness_value);
    Rng runs = master.split(sigma * 10 + k);
    RunningStat rp = session.measure(adv.instance, columns.back().make, runs,
                                     cell.default_trials);
    summary.gate_met = summary.gate_met && rp.mean() > det_max;
    summary.fold_cell(det_max, det_ratio_min, rp.mean());
    session.emit(policy_row(head, columns.back().name, false, rp,
                            adv.witness_value, den, bound));
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
  const std::vector<engine::AlgSpec> columns = family_columns();
  const std::size_t num_det = columns.size() - 1;
  FamilySummary summary;
  summary.policies = columns.size();
  for (const api::ScenarioSpec& cell :
       api::expand(api::scenarios().at(scenario_name))) {
    const int draws = cell.default_trials;
    const std::size_t shape =
        cell.family == api::ScenarioFamily::kWeakLb ? cell.t : cell.ell;
    std::vector<RunningStat> stats(columns.size());
    RunningStat opt_stat, lp_stat;
    bool all_exact = true;
    bool all_lp = true;
    double witness_value = 0;
    double bound = 0;
    engine::TrialContext ctx;
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

      // randPr's stream is split after its draw's instance stream, as
      // the seed loop split it.
      for (std::size_t i = 0; i < columns.size(); ++i) {
        const Rng stream =
            i < num_det ? Rng(0) : master.split(randpr_key_base + key);
        const engine::TrialResult r = engine::run_play_trial_cached(
            adv.instance, columns[i], i, stream, ctx);
        stats[i].add(r.benefit);
      }
    }
    const api::OptDenominator den{opt_stat.mean(), all_exact,
                                  all_lp ? lp_stat.mean() : 0.0};
    const api::Row head = api::Row{}
                              .add("sweep", sweep_key)
                              .add("scenario", cell.display_label())
                              .add(sweep_key == "weaklb" ? "t" : "ell", shape);

    double det_max = 0;
    double det_ratio_min = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < columns.size(); ++i) {
      const double mean = stats[i].mean();
      if (i < num_det) {
        det_max = std::max(det_max, mean);
        det_ratio_min =
            std::min(det_ratio_min, api::competitive_ratio(den.opt, mean));
      }
      session.emit(policy_row(head, columns[i].name, i < num_det, stats[i],
                              witness_value, den, bound));
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
