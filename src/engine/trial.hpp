// Trial abstractions for the shared batch runner.
//
// A trial is one (instance × algorithm × seed) cell of an experiment grid.
// Seeds are derived deterministically from the grid coordinates — never
// from thread ids or scheduling order — so every result is bit-identical
// regardless of how many workers execute the batch.  Per-thread state
// (engine scratch, decision buffers) lives in TrialContext and is reused
// across all trials a worker executes, so a steady-state trial allocates
// only its Outcome and what a policy's reseed() rebuilds (see
// run_play_trial_cached).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/game.hpp"
#include "core/instance.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace osp::engine {

class BatchRunner;

/// Per-worker reusable state handed to every trial body.
struct TrialContext {
  PlayScratch scratch;
  std::size_t thread_index = 0;
  /// One cached algorithm per grid column (run_play_trial_cached's
  /// reseed path): a reseedable policy is constructed once per worker and
  /// re-armed with reseed() + start() for every later trial, so its
  /// internal arrays are not rebuilt.  Non-reseedable policies are
  /// rebuilt each trial.
  std::vector<std::unique_ptr<OnlineAlgorithm>> alg_cache;
};

/// Derives the seed of trial `trial` of algorithm `alg_idx` on instance
/// `instance_idx`: a SplitMix64 mix of the coordinates, independent of
/// execution order.
std::uint64_t trial_seed(std::uint64_t master_seed, std::size_t instance_idx,
                         std::size_t alg_idx, std::uint64_t trial);

/// Builds a fresh algorithm for one trial from that trial's seeded Rng.
using AlgFactory = std::function<std::unique_ptr<OnlineAlgorithm>(Rng)>;

/// A named algorithm column of the grid.
struct AlgSpec {
  std::string name;
  AlgFactory make;
};

/// Scalar outcomes of one play trial.
struct TrialResult {
  Weight benefit = 0;
  std::size_t decisions = 0;
  std::size_t completed = 0;
};

/// Runs one trial of `alg` on `inst`, with the policy armed from `rng`,
/// through the block-stepped engine (play_flat_blocks), reusing
/// ctx.alg_cache[alg_idx] across calls when the policy is reseedable
/// (decision-identical to fresh construction by the reseed() contract).
/// Every play trial runs here: run_grid's and Session::measure's.  In
/// steady state such a trial allocates only the returned Outcome's
/// vectors (`completed`, grown by push_back, and `completed_mask`) plus
/// whatever reseed() rebuilds: nothing for randPr and the baselines, the
/// hash function for hashPr.
TrialResult run_play_trial_cached(const Instance& inst, const AlgSpec& alg,
                                  std::size_t alg_idx, Rng rng,
                                  TrialContext& ctx);

/// Aggregates of one (instance, algorithm) grid cell over its trials.
struct CellStats {
  RunningStat benefit;
  RunningStat decisions;
  std::uint64_t elements = 0;  // total elements processed across trials
};

/// An (instances × algorithms × trials) experiment grid.
struct GridSpec {
  /// cell_end sentinel: run every cell.
  static constexpr std::size_t kAllCells = ~static_cast<std::size_t>(0);

  std::vector<const Instance*> instances;
  std::vector<AlgSpec> algorithms;
  int trials = 1;
  std::uint64_t master_seed = 0x05e7facade5ULL;
  /// Contiguous slice [cell_begin, cell_end) of the row-major cell
  /// enumeration (cell = instance_idx * algorithms.size() + alg_idx) to
  /// execute — what a grid shard runs.  Seeds still derive from the
  /// GLOBAL coordinates through trial_seed(), so every cell's per-trial
  /// Rng stream is independent of the slice that executes it, and
  /// recombined shards are bit-identical to the full run.  The default
  /// (0, kAllCells) runs everything.
  std::size_t cell_begin = 0;
  std::size_t cell_end = kAllCells;
};

/// Runs the grid's [cell_begin, cell_end) slice on `runner`; the result
/// holds one CellStats per executed cell in slice order, so the full-grid
/// default puts cell (i, a) at index i * algorithms.size() + a.
/// Deterministic for any worker count.
std::vector<CellStats> run_grid(const BatchRunner& runner,
                                const GridSpec& spec);

}  // namespace osp::engine
