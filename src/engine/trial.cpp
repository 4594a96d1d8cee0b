#include "engine/trial.hpp"

#include "engine/batch_runner.hpp"
#include "util/require.hpp"

namespace osp::engine {

std::uint64_t trial_seed(std::uint64_t master_seed, std::size_t instance_idx,
                         std::size_t alg_idx, std::uint64_t trial) {
  // Feed the coordinates through SplitMix64 one at a time; each call
  // advances the state, so (i, a, t) and (a, i, t) produce unrelated
  // seeds and no coordinate can cancel another.
  std::uint64_t state = master_seed;
  splitmix64(state);
  state ^= 0x9e3779b97f4a7c15ULL * (instance_idx + 1);
  splitmix64(state);
  state ^= 0xbf58476d1ce4e5b9ULL * (alg_idx + 1);
  splitmix64(state);
  state ^= trial;
  return splitmix64(state);
}

TrialResult run_play_trial_cached(const Instance& inst, const AlgSpec& alg,
                                  std::size_t alg_idx, Rng rng,
                                  TrialContext& ctx) {
  OSP_REQUIRE(alg.make != nullptr);
  if (ctx.alg_cache.size() <= alg_idx) ctx.alg_cache.resize(alg_idx + 1);
  std::unique_ptr<OnlineAlgorithm>& policy = ctx.alg_cache[alg_idx];
  if (policy != nullptr && policy->reseedable()) {
    // Decision-identical to fresh construction (reseed() contract), but
    // the policy's internal arrays survive — the engine's start() resizes
    // them in place.  The Rng is 32 bytes copied without allocating, so a
    // deterministic policy pays next to nothing for it.
    policy->reseed(rng);
  } else {
    policy = alg.make(rng);
    OSP_REQUIRE(policy != nullptr);
  }
  Outcome out = play_flat_blocks(inst, *policy, ctx.scratch);
  return TrialResult{out.benefit, out.decisions, out.completed.size()};
}

std::vector<CellStats> run_grid(const BatchRunner& runner,
                                const GridSpec& spec) {
  OSP_REQUIRE(spec.trials >= 1);
  const std::size_t num_algs = spec.algorithms.size();
  const std::size_t trials = static_cast<std::size_t>(spec.trials);
  const std::size_t total_cells = spec.instances.size() * num_algs;
  const std::size_t begin = spec.cell_begin;
  const std::size_t end =
      spec.cell_end == GridSpec::kAllCells ? total_cells : spec.cell_end;
  OSP_REQUIRE_MSG(begin <= end && end <= total_cells,
                  "grid cell slice [" << begin << ", " << end
                                      << ") does not fit a grid of "
                                      << total_cells << " cells");
  const std::size_t active = end - begin;
  const std::size_t total = active * trials;

  // Flat trial index -> (cell, trial); trial varies fastest so
  // neighbouring indices share an instance and stay cache-warm.  The
  // (instance, algorithm) coordinates and the seed come from the GLOBAL
  // cell index, so a slice computes exactly what the full run computes
  // for those cells.
  auto results = runner.map<TrialResult>(
      total, [&](std::size_t idx, TrialContext& ctx) {
        const std::size_t t = idx % trials;
        const std::size_t cell = begin + idx / trials;
        const std::size_t a = cell % num_algs;
        const std::size_t i = cell / num_algs;
        return run_play_trial_cached(
            *spec.instances[i], spec.algorithms[a], a,
            Rng(trial_seed(spec.master_seed, i, a, t)), ctx);
      });

  // Serial aggregation in index order: deterministic for any thread count.
  std::vector<CellStats> cells(active);
  for (std::size_t idx = 0; idx < total; ++idx) {
    const std::size_t local = idx / trials;
    const std::size_t i = (begin + local) / num_algs;
    CellStats& cell = cells[local];
    cell.benefit.add(results[idx].benefit);
    cell.decisions.add(static_cast<double>(results[idx].decisions));
    cell.elements += spec.instances[i]->num_elements();
  }
  return cells;
}

}  // namespace osp::engine
