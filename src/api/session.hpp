// Session — the run facade every experiment entry point goes through.
//
// A Session bundles the shared multi-threaded BatchRunner with a fan-out
// of attached ResultSinks: benches and the CLI build rows once and
// emit() them to every sink (console table, BENCH_*.json, …).  The
// measure helpers preserve the seed repo's exact per-trial Rng streams
// (trial t plays make(master.split(t)) through the grid's trial,
// engine::run_play_trial_cached), so numbers printed through a Session
// are bit-identical to the historical serial loops at any thread count.
//
// Each measurement kind is implemented once, here: the competitive-ratio
// cell (measure_ratio), the policy grid (run_grid), the buffered-router
// ranker grid (run_rankers) and the sustained multi-link serving run
// (run_sustained).  bench_router and `osp_cli bench` both call the last
// three, so a bench row and the CLI line that names the same scenario,
// rankers and seed print the same values.
//
// Streams of the ranker grid and the sustained run.  One master
// Rng(seed) splits cell c's stream as master.split(c), in cell order.
// Inside a cell, workload draw d is cell.split(d) and every ranker's
// stream for that draw is cell.split(1e9 + d), split in the order
// d, 1e9 + d, d + 1, 1e9 + d + 1, …  All rankers of a draw share its
// stream, so a ranker's row does not depend on its position in the
// ranker list.  A sustained run is draw 0.
#pragma once

#include <string>
#include <vector>

#include "api/policy_registry.hpp"
#include "api/ranker_registry.hpp"
#include "api/result_sink.hpp"
#include "api/scenario.hpp"
#include "core/game.hpp"
#include "core/instance.hpp"
#include "engine/batch_runner.hpp"
#include "stats/summary.hpp"

namespace osp::api {

/// A policy's competitive ratio on one instance (Session::measure_ratio).
struct RatioCell {
  double opt = 0;     // the proven optimum
  RunningStat alg;    // the policy's benefit over the trials
  double ratio = 0;   // competitive_ratio(opt, alg.mean())
};

/// The competitive ratio opt / mean.  A policy that earns nothing is
/// charged as if it had earned one unit of weight, so the ratio is opt
/// (0 when opt is 0 too): finite, as strict JSON needs.
double competitive_ratio(double opt, double mean);

class Session {
 public:
  /// Uses the process-wide shared runner (hardware threads, OSP_THREADS).
  Session();
  explicit Session(const engine::BatchRunner& runner);

  const engine::BatchRunner& runner() const { return *runner_; }
  std::size_t threads() const { return runner_->num_threads(); }

  /// Attaches a sink; every subsequent emit() fans out to it.  The sink
  /// must outlive the session's emits.
  void attach(ResultSink& sink);
  void emit(const Row& row);
  /// Closes every attached sink (JSON documents get finished).
  void close_sinks();

  /// Mean benefit (with CI) of `make(master.split(t))` over `trials`
  /// independent runs — the seed repo's serial measure loop, batched
  /// across worker threads.  Each trial is
  /// engine::run_play_trial_cached: a reseedable policy is built once per
  /// worker and reseeded with master.split(t), which the reseed()
  /// contract makes decision-identical to fresh construction.  Memory
  /// does not grow with `trials`, which is in [1, 1e9]; any other count
  /// throws RequireError.
  RunningStat measure(const Instance& inst, const PolicyFactory& make,
                      Rng& master, int trials) const;

  /// measure() with the policy resolved through the registry.
  RunningStat measure(const Instance& inst, const std::string& policy_spec,
                      Rng& master, int trials) const;

  /// One competitive-ratio cell: the policy's benefit from measure(), the
  /// optimum that branch and bound proves for `inst`, and their
  /// competitive_ratio().  Throws RequireError, naming the node
  /// limit, when branch and bound stops at that limit before it has
  /// proven the optimum: an unproven value is never published as opt.
  RatioCell measure_ratio(const Instance& inst, const PolicyFactory& make,
                          Rng& master, int trials) const;

  /// Runs an (instances × policies × trials) grid on the runner and emits
  /// one row per cell to the attached sinks:
  ///   {instance, policy, trials, benefit_mean, benefit_ci95,
  ///    decisions_mean, elements}.
  /// `instance_labels` (optional) names the rows; defaults to indices.
  /// Returns the cells in row-major (instance, policy) order.  A grid
  /// with a cell slice (spec.cell_begin / cell_end — what a shard runs)
  /// executes and emits only those cells, in the same canonical order
  /// and with the exact values the full run would produce for them.
  std::vector<engine::CellStats> run_grid(
      const engine::GridSpec& spec,
      const std::vector<std::string>& instance_labels = {});

  /// Buffered-router ranker grid over video scenario cells: each of
  /// `trials` workload draws of a cell is built once and every ranker
  /// plays it through serve_sustained at one link, with the workload's
  /// stream map (rankers are reused per worker through reseed).  Each
  /// cell has its own draws, so cells that differ only in
  /// buffer are not played on the same workloads.  Every run must
  /// account for each packet (arrived == served + dropped).  Emits and
  /// returns one row per (cell, ranker), cell-major:
  ///   {sweep: "rankers", scenario, ranker, buffer, service_rate, trials,
  ///    goodput_mean, served_mean, dropped_mean}.
  /// Rows are identical at any runner thread count.  `trials` is in
  /// [1, 1e9].
  std::vector<Row> run_rankers(const std::vector<ScenarioSpec>& cells,
                               const std::vector<std::string>& rankers,
                               std::size_t trials, std::uint64_t seed);

  /// Sustained multi-link serving run (net/serve.hpp) over video scenario
  /// cells: one workload draw per cell, served by each ranker at each
  /// worker count.  Every timed serve_sustained call is first proven
  /// stats-identical to serve_sustained_reference.  Emits and returns one
  /// row per (cell, ranker, workers), in that order, carrying the cell
  /// shape, the drop taxonomy, window goodput, serve/drop latency
  /// percentiles, starvation counters, the timing (seconds,
  /// packets_per_sec) and cross_check = "pass".
  std::vector<Row> run_sustained(const std::vector<ScenarioSpec>& cells,
                                 const std::vector<std::string>& rankers,
                                 const std::vector<std::size_t>& workers,
                                 std::uint64_t seed);

 private:
  const engine::BatchRunner* runner_;
  std::vector<ResultSink*> sinks_;
};

/// Turns a registry entry into an engine grid column.
engine::AlgSpec grid_column(const PolicyInfo& info);

/// What run_rankers and run_sustained check before they emit a row:
/// resolves every ranker name (an unknown one throws RequireError with
/// the ranker catalog) and requires every cell to be a video scenario
/// (otherwise the error lists the video scenarios).  Callers that open a
/// never-overwrite artifact before running (the CLI's --json) call it
/// first, so a bad request leaves no file behind.
std::vector<const RankerInfo*> resolve_ranker_run(
    const std::vector<ScenarioSpec>& cells,
    const std::vector<std::string>& rankers);

}  // namespace osp::api
