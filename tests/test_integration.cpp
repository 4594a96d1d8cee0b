// Integration tests: full pipelines exercising several modules together,
// mirroring what the examples and benchmarks do.
#include <gtest/gtest.h>

#include "algos/baselines.hpp"
#include "algos/offline.hpp"
#include "core/bounds.hpp"
#include "core/game.hpp"
#include "core/rand_pr.hpp"
#include "design/lower_bounds.hpp"
#include "gen/random_instances.hpp"
#include "gen/video.hpp"
#include "net/router_sim.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

TEST(Integration, GeneratorGameOfflineRoundTrip) {
  // generator -> game (several algorithms) -> offline opt; all benefits
  // must be feasible values below opt.
  Rng master(1);
  for (int trial = 0; trial < 10; ++trial) {
    Rng gen = master.split(trial);
    Instance inst =
        random_instance(14, 20, 3, WeightModel::uniform(1, 6), gen);
    OfflineResult opt = exact_optimum(inst);
    ASSERT_TRUE(opt.exact);

    RandPr rp(master.split(1000 + trial));
    EXPECT_LE(play(inst, rp).benefit, opt.value + 1e-9);
    for (auto& alg : make_deterministic_baselines())
      EXPECT_LE(play(inst, *alg).benefit, opt.value + 1e-9) << alg->name();
  }
}

TEST(Integration, UniformFamilyRespectsCorollary7) {
  // Uniform size AND load: E[alg] >= opt / k (Corollary 7).  Single
  // regular instance, many randPr runs.
  Rng master(2);
  Instance inst = regular_instance(24, 3, 6, WeightModel::unit(), master);
  InstanceStats st = inst.stats();
  ASSERT_TRUE(st.uniform_size && st.uniform_load);
  OfflineResult opt = exact_optimum(inst);
  ASSERT_TRUE(opt.exact);

  RunningStat benefit;
  for (int t = 0; t < 800; ++t) {
    RandPr alg(master.split(t));
    benefit.add(play(inst, alg).benefit);
  }
  double bound = corollary7_bound(st);  // = k = 3
  EXPECT_GE(benefit.mean() + benefit.ci95_halfwidth(), opt.value / bound);
}

TEST(Integration, VideoThroughRouterAndGameAgree) {
  Rng rng(3);
  VideoParams params;
  params.num_streams = 6;
  params.frames_per_stream = 12;
  VideoWorkload vw = make_video_workload(params, rng);
  RandPr a{Rng(7)}, b{Rng(7)};
  RouterStats rs = simulate_router(vw.schedule, a, 1);
  Outcome go = play(vw.schedule.to_instance(1), b);
  EXPECT_DOUBLE_EQ(rs.value_delivered, go.benefit);
}

TEST(Integration, RandPrBeatsGreedyOnAdversarialTranscript) {
  // Build the Theorem 3 trap for greedy, then compare expected benefits
  // on the SAME oblivious instance.
  GreedyFirst victim;
  AdaptiveAdversaryResult adv = run_theorem3_adversary(victim, 4, 3);
  EXPECT_LE(adv.alg_outcome.benefit, 1.0);

  Rng master(4);
  RunningStat rp_benefit;
  for (int t = 0; t < 100; ++t) {
    RandPr alg(master.split(t));
    rp_benefit.add(play(adv.transcript, alg).benefit);
  }
  EXPECT_GT(rp_benefit.mean(), adv.alg_outcome.benefit);
}

TEST(Integration, BoundsOrderingOnRandomInstances) {
  // theorem1 <= corollary6 <= naive, on any unit-capacity instance.
  Rng master(5);
  for (int trial = 0; trial < 10; ++trial) {
    Rng gen = master.split(trial);
    Instance inst = random_instance(20, 30, 3 + trial % 3,
                                    WeightModel::uniform(1, 4), gen);
    InstanceStats st = inst.stats();
    EXPECT_LE(theorem1_bound(st), corollary6_bound(st) + 1e-9);
    EXPECT_LE(corollary6_bound(st), naive_bound(st) + 1e-9);
  }
}

TEST(Integration, Lemma9EndToEnd) {
  // Draw a Lemma 9 instance, run randPr and greedy, confirm the planted
  // solution dominates both by a wide margin (the lower-bound gap).
  Rng rng(6);
  Lemma9Instance li = build_lemma9_instance(3, rng);
  double opt_lb = static_cast<double>(li.planted.size());  // 27

  Rng master(7);
  RunningStat rp;
  for (int t = 0; t < 30; ++t) {
    RandPr alg(master.split(t));
    rp.add(play(li.instance, alg).benefit);
  }
  GreedyFirst greedy;
  double greedy_benefit = play(li.instance, greedy).benefit;

  EXPECT_LT(rp.mean(), opt_lb / 2);
  EXPECT_LT(greedy_benefit, opt_lb / 2);
}

TEST(Integration, WeightedLoadIdentity) {
  // Eq. (4) of the paper: n·avg(σ$) = Σ_S |S|·w(S) <= kmax·w(C).
  Rng master(8);
  for (int trial = 0; trial < 10; ++trial) {
    Rng gen = master.split(trial);
    Instance inst =
        random_instance(15, 25, 4, WeightModel::uniform(1, 9), gen);
    InstanceStats st = inst.stats();
    double lhs = static_cast<double>(st.num_elements) * st.sigma_w_avg;
    double sum = 0;
    for (SetId s = 0; s < inst.num_sets(); ++s)
      sum += static_cast<double>(inst.set_size(s)) * inst.weight(s);
    EXPECT_NEAR(lhs, sum, 1e-6);
    EXPECT_LE(lhs, static_cast<double>(st.k_max) * st.total_weight + 1e-6);
  }
}

TEST(Integration, HashedRandPrGuaranteeHolds) {
  // The distributed variant satisfies the same Corollary 6 guarantee in
  // practice (with enough independence).
  Rng master(9);
  Instance inst = random_instance(16, 20, 3, WeightModel::unit(), master);
  InstanceStats st = inst.stats();
  OfflineResult opt = exact_optimum(inst);
  ASSERT_TRUE(opt.exact);

  RunningStat benefit;
  for (int t = 0; t < 400; ++t) {
    Rng r = master.split(t);
    auto alg = RandPr::with_polynomial(8, r);
    benefit.add(play(inst, *alg).benefit);
  }
  EXPECT_GE(benefit.mean() + benefit.ci95_halfwidth(),
            opt.value / corollary6_bound(st));
}

}  // namespace
}  // namespace osp
