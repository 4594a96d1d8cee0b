// Randomized cross-cutting invariant tests ("fuzz light"): every
// algorithm on every generator family must satisfy the game's global
// invariants, and independent implementations of the same quantity must
// agree.
#include <gtest/gtest.h>

#include <sstream>

#include "algos/baselines.hpp"
#include "algos/fractional.hpp"
#include "algos/offline.hpp"
#include "core/game.hpp"
#include "core/io.hpp"
#include "core/partial.hpp"
#include "core/rand_pr.hpp"
#include "design/lower_bounds.hpp"
#include "gen/multihop.hpp"
#include "gen/random_instances.hpp"
#include "gen/traffic.hpp"
#include "gen/video.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

// One instance from each generator family, varied by seed.
std::vector<Instance> zoo(std::uint64_t seed) {
  Rng master(seed);
  std::vector<Instance> out;
  Rng g1 = master.split(1);
  out.push_back(random_instance(18, 22, 3, WeightModel::uniform(1, 6), g1));
  Rng g2 = master.split(2);
  out.push_back(random_capacity_instance(15, 18, 3, 3,
                                         WeightModel::zipf(1.1), g2));
  Rng g3 = master.split(3);
  out.push_back(fixed_load_instance(14, 20, 3, WeightModel::unit(), g3));
  Rng g4 = master.split(4);
  out.push_back(regular_instance(12, 3, 4, WeightModel::unit(), g4));
  Rng g5 = master.split(5);
  VideoParams vp;
  vp.num_streams = 5;
  vp.frames_per_stream = 8;
  out.push_back(make_video_workload(vp, g5).schedule.to_instance(1));
  Rng g6 = master.split(6);
  MultiHopParams mp;
  mp.num_packets = 30;
  out.push_back(make_multihop_workload(mp, g6).instance);
  Rng g7 = master.split(7);
  out.push_back(build_weak_lb_instance(4, g7).instance);
  return out;
}

// Every algorithm the library ships, freshly constructed.
std::vector<std::unique_ptr<OnlineAlgorithm>> all_algorithms(
    std::uint64_t seed) {
  Rng master(seed);
  auto out = make_deterministic_baselines();
  out.push_back(std::make_unique<RandPr>(master.split(1)));
  out.push_back(std::make_unique<RandPr>(
      master.split(2), RandPrOptions{.filter_dead = true}));
  out.push_back(std::make_unique<RandPr>(
      master.split(3), RandPrOptions{.ignore_weights = true}));
  out.push_back(std::make_unique<UniformRandomChoice>(master.split(4)));
  Rng h1 = master.split(5);
  out.push_back(RandPr::with_polynomial(4, h1));
  Rng h2 = master.split(6);
  out.push_back(RandPr::with_tabulation(h2));
  return out;
}

TEST(Fuzz, BenefitEqualsSumOfCompletedWeights) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    for (const Instance& inst : zoo(seed)) {
      for (auto& alg : all_algorithms(seed)) {
        Outcome out = play(inst, *alg);
        Weight sum = 0;
        for (SetId s : out.completed) sum += inst.weight(s);
        EXPECT_NEAR(out.benefit, sum, 1e-9)
            << alg->name() << " on " << inst.describe();
        // Mask and list agree.
        std::size_t mask_count = 0;
        for (bool b : out.completed_mask) mask_count += b;
        EXPECT_EQ(mask_count, out.completed.size());
      }
    }
  }
}

TEST(Fuzz, NoAlgorithmBeatsExactOptimum) {
  for (std::uint64_t seed : {44u, 55u}) {
    for (const Instance& inst : zoo(seed)) {
      if (inst.num_sets() > 26) continue;  // keep B&B fast
      OfflineResult opt = exact_optimum(inst);
      if (!opt.exact) continue;
      for (auto& alg : all_algorithms(seed))
        EXPECT_LE(play(inst, *alg).benefit, opt.value + 1e-9)
            << alg->name() << " on " << inst.describe();
    }
  }
}

TEST(Fuzz, CompletedSetsFormFeasibleSolution) {
  for (std::uint64_t seed : {66u, 77u}) {
    for (const Instance& inst : zoo(seed)) {
      for (auto& alg : all_algorithms(seed)) {
        Outcome out = play(inst, *alg);
        EXPECT_TRUE(is_feasible(inst, out.completed))
            << alg->name() << " on " << inst.describe();
      }
    }
  }
}

TEST(Fuzz, PartialWithZeroBudgetMatchesClassic) {
  for (std::uint64_t seed : {88u}) {
    for (const Instance& inst : zoo(seed)) {
      RandPr a{Rng(seed)}, b{Rng(seed)};
      Outcome classic = play(inst, a);
      PartialOutcome partial = play_partial(inst, b, PartialCreditRule{});
      EXPECT_DOUBLE_EQ(classic.benefit, partial.benefit)
          << inst.describe();
    }
  }
}

TEST(Fuzz, IoRoundTripPreservesOutcomes) {
  // Serialize, reload, replay with the same seed: outcomes identical.
  for (const Instance& inst : zoo(99)) {
    std::stringstream ss;
    write_instance(ss, inst);
    Instance back = read_instance(ss);
    RandPr a{Rng(7)}, b{Rng(7)};
    EXPECT_EQ(play(inst, a).completed, play(back, b).completed);
  }
}

TEST(Fuzz, FractionalUpperBoundsEveryIntegralOnlineRun) {
  // The fractional online value is not an upper bound on integral online
  // in general, but the LP optimum is; verify the chain
  // integral-run <= exact-opt <= lp for every family.
  for (const Instance& inst : zoo(111)) {
    if (inst.num_sets() > 26) continue;
    OfflineResult opt = exact_optimum(inst);
    if (!opt.exact) continue;
    double lp = lp_upper_bound(inst);
    EXPECT_LE(opt.value, lp + 1e-6) << inst.describe();
    FractionalOutcome frac = fractional_online(inst);
    EXPECT_LE(frac.value, lp + 1e-6) << inst.describe();
  }
}

TEST(Fuzz, GreedyOfflineNeverBeatsExact) {
  for (const Instance& inst : zoo(222)) {
    if (inst.num_sets() > 26) continue;
    OfflineResult opt = exact_optimum(inst);
    if (!opt.exact) continue;
    EXPECT_LE(greedy_offline(inst).value, opt.value + 1e-9);
  }
}

TEST(Fuzz, StatsIdentities) {
  // n·σ̄ = Σ|S| = m·k̄ and n·avg(σ$) = Σ|S|w(S) on every family.
  for (const Instance& inst : zoo(333)) {
    InstanceStats st = inst.stats();
    double total_membership = 0, weighted_membership = 0;
    for (SetId s = 0; s < inst.num_sets(); ++s) {
      total_membership += static_cast<double>(inst.set_size(s));
      weighted_membership +=
          static_cast<double>(inst.set_size(s)) * inst.weight(s);
    }
    EXPECT_NEAR(st.sigma_avg * static_cast<double>(st.num_elements),
                total_membership, 1e-6);
    EXPECT_NEAR(st.k_avg * static_cast<double>(st.num_sets),
                total_membership, 1e-6);
    EXPECT_NEAR(st.sigma_w_avg * static_cast<double>(st.num_elements),
                weighted_membership, 1e-6);
  }
}

}  // namespace
}  // namespace osp
