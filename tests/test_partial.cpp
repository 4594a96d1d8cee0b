// Tests for the partial-credit extension (open problem 3): scoring,
// flow-based feasibility, exact optimum, LP bound, and the effect of miss
// tolerance on the measured competitive ratio.
#include <gtest/gtest.h>

#include <algorithm>

#include "algos/partial_offline.hpp"
#include "core/game.hpp"
#include "core/partial.hpp"
#include "core/rand_pr.hpp"
#include "gen/random_instances.hpp"
#include "gen/video.hpp"
#include "stats/summary.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

TEST(PartialValue, ThresholdRule) {
  PartialCreditRule r{.max_misses = 1, .prorated = false};
  EXPECT_DOUBLE_EQ(partial_value(4.0, 5, 5, r), 4.0);
  EXPECT_DOUBLE_EQ(partial_value(4.0, 5, 4, r), 4.0);
  EXPECT_DOUBLE_EQ(partial_value(4.0, 5, 3, r), 0.0);
  EXPECT_DOUBLE_EQ(partial_value(4.0, 5, 0, r), 0.0);
}

TEST(PartialValue, ProratedRule) {
  PartialCreditRule r{.max_misses = 2, .prorated = true};
  EXPECT_DOUBLE_EQ(partial_value(10.0, 5, 5, r), 10.0);
  EXPECT_DOUBLE_EQ(partial_value(10.0, 5, 4, r), 8.0);
  EXPECT_DOUBLE_EQ(partial_value(10.0, 5, 3, r), 6.0);
  EXPECT_DOUBLE_EQ(partial_value(10.0, 5, 2, r), 0.0);
}

TEST(PartialValue, ZeroMissesIsClassic) {
  PartialCreditRule r{};
  EXPECT_DOUBLE_EQ(partial_value(3.0, 2, 2, r), 3.0);
  EXPECT_DOUBLE_EQ(partial_value(3.0, 2, 1, r), 0.0);
}

TEST(PartialValue, EmptySetVacuouslyFull) {
  EXPECT_DOUBLE_EQ(partial_value(2.0, 0, 0, PartialCreditRule{}), 2.0);
}

TEST(PartialValue, ReceivedBeyondSizeThrows) {
  EXPECT_THROW(partial_value(1.0, 2, 3, PartialCreditRule{}), RequireError);
}

TEST(PlayPartial, MatchesClassicForZeroMisses) {
  Rng gen(1);
  Instance inst = random_instance(20, 25, 3, WeightModel::uniform(1, 5), gen);
  RandPr a{Rng(9)}, b{Rng(9)};
  Outcome classic = play(inst, a);
  PartialOutcome partial = play_partial(inst, b, PartialCreditRule{});
  EXPECT_DOUBLE_EQ(classic.benefit, partial.benefit);
  EXPECT_EQ(classic.completed, partial.credited);
}

TEST(PlayPartial, RejectsASetThatDoesNotContainTheElement) {
  // s0 = {e0, e2}, s1 = {e1, e2}.  Answering s1 at e0 (and the first
  // candidate elsewhere) would credit s1 in full although it lost e2.
  // Partial credit changes the scoring, not the rules: the answer is
  // rejected exactly as play() rejects it.
  class AnswersS1AtE0 final : public OnlineAlgorithm {
   public:
    std::string name() const override { return "answers-s1-at-e0"; }
    void start(const std::vector<SetMeta>&) override {}
    std::size_t decide(ElementId u, Capacity, const SetId* candidates,
                       std::size_t, SetId* out) override {
      out[0] = u == 0 ? SetId{1} : candidates[0];
      return 1;
    }
  };
  InstanceBuilder b;
  b.add_sets(2, 5.0);
  b.add_element({0});
  b.add_element({1});
  b.add_element({0, 1});
  const Instance inst = b.build();
  AnswersS1AtE0 alg;
  EXPECT_THROW(play_partial(inst, alg, PartialCreditRule{}), RequireError);
  EXPECT_THROW(play(inst, alg), RequireError);
}

TEST(PlayPartial, MissBudgetIncreasesBenefit) {
  Rng gen(2);
  Instance inst = random_instance(24, 20, 4, WeightModel::unit(), gen);
  double previous = -1;
  for (std::size_t r : {0u, 1u, 2u, 3u}) {
    RandPr alg{Rng(5)};  // same priorities across r
    PartialOutcome out =
        play_partial(inst, alg, PartialCreditRule{.max_misses = r});
    EXPECT_GE(out.benefit, previous);
    previous = out.benefit;
  }
}

TEST(PartialFeasible, SingleElementConflict) {
  // Two size-1 sets on one unit element: classic infeasible together, but
  // with one allowed miss each, both can "complete" (claim 0 elements
  // each... size 1, misses 1 -> demand 0).
  InstanceBuilder b;
  b.add_sets(2);
  b.add_element({0, 1});
  Instance inst = b.build();
  EXPECT_FALSE(partial_feasible(inst, {0, 1}, PartialCreditRule{}));
  EXPECT_TRUE(partial_feasible(inst, {0, 1},
                               PartialCreditRule{.max_misses = 1}));
}

TEST(PartialFeasible, SharedElementsNeedFlow) {
  // Three sets of size 2 over three unit elements arranged in a triangle:
  // with r=1 each set needs 1 element; a system of distinct
  // representatives exists, so all three are feasible together.
  InstanceBuilder b;
  b.add_sets(3);
  b.add_element({0, 1});
  b.add_element({1, 2});
  b.add_element({0, 2});
  Instance inst = b.build();
  EXPECT_FALSE(partial_feasible(inst, {0, 1, 2}, PartialCreditRule{}));
  EXPECT_TRUE(
      partial_feasible(inst, {0, 1, 2}, PartialCreditRule{.max_misses = 1}));
}

TEST(PartialFeasible, CapacityCounts) {
  // Two sets both need the single element fully; capacity 2 fits both.
  InstanceBuilder b;
  b.add_sets(2);
  b.add_element({0, 1}, 2);
  Instance inst = b.build();
  EXPECT_TRUE(partial_feasible(inst, {0, 1}, PartialCreditRule{}));
}

TEST(PartialExact, MatchesClassicAtZeroMisses) {
  Rng master(3);
  for (int trial = 0; trial < 10; ++trial) {
    Rng gen = master.split(trial);
    Instance inst =
        random_instance(10, 14, 3, WeightModel::uniform(1, 6), gen);
    OfflineResult classic = exact_optimum(inst);
    OfflineResult partial =
        partial_exact_optimum(inst, PartialCreditRule{});
    ASSERT_TRUE(partial.exact);
    EXPECT_NEAR(classic.value, partial.value, 1e-9) << inst.describe();
  }
}

// Total weight of `chosen`.
Weight weight_of(const Instance& inst, const std::vector<SetId>& chosen) {
  Weight w = 0;
  for (SetId s : chosen) w += inst.weight(s);
  return w;
}

TEST(PartialExact, MatchesBruteForceWithMisses) {
  // Ten 3-element sets over six elements: at r = 1 a set needs two of its
  // elements and at r = 2 one, so the capacities still bind.
  Rng master(9);
  for (int trial = 0; trial < 8; ++trial) {
    Rng gen = master.split(trial);
    const WeightModel weights = WeightModel::uniform(1, 6);
    Instance inst = trial % 2
                        ? random_capacity_instance(10, 6, 3, 2, weights, gen)
                        : random_instance(10, 6, 3, weights, gen);
    for (std::size_t r : {1u, 2u}) {
      const PartialCreditRule rule{.max_misses = r};
      OfflineResult res = partial_exact_optimum(inst, rule);
      ASSERT_TRUE(res.exact);
      Weight best = 0;
      for (std::uint64_t mask = 0; mask < (1ULL << inst.num_sets()); ++mask) {
        std::vector<SetId> chosen;
        for (std::size_t s = 0; s < inst.num_sets(); ++s)
          if (mask & (1ULL << s)) chosen.push_back(static_cast<SetId>(s));
        if (partial_feasible(inst, chosen, rule))
          best = std::max(best, weight_of(inst, chosen));
      }
      EXPECT_NEAR(res.value, best, 1e-9) << inst.describe() << " r=" << r;
      EXPECT_TRUE(partial_feasible(inst, res.chosen, rule));
      EXPECT_NEAR(weight_of(inst, res.chosen), res.value, 1e-9);
    }
  }
}

TEST(PartialExact, TinyNodeLimitHonoredWithFeasiblePartial) {
  Rng master(10);
  for (int trial = 0; trial < 6; ++trial) {
    Rng gen = master.split(trial);
    Instance inst = random_instance(14, 12, 3, WeightModel::uniform(1, 6), gen);
    const PartialCreditRule rule{.max_misses = trial % 3u};
    OfflineResult res = partial_exact_optimum(inst, rule, /*node_limit=*/3);
    EXPECT_FALSE(res.exact);
    EXPECT_TRUE(partial_feasible(inst, res.chosen, rule));
    EXPECT_NEAR(weight_of(inst, res.chosen), res.value, 1e-9);
  }
}

TEST(PartialExact, MonotoneInMissBudget) {
  Rng gen(4);
  Instance inst = random_instance(12, 12, 3, WeightModel::unit(), gen);
  double previous = -1;
  for (std::size_t r : {0u, 1u, 2u}) {
    OfflineResult res =
        partial_exact_optimum(inst, PartialCreditRule{.max_misses = r});
    ASSERT_TRUE(res.exact);
    EXPECT_GE(res.value, previous);
    previous = res.value;
  }
}

TEST(PartialExact, FullMissBudgetTakesEverything) {
  Rng gen(5);
  Instance inst = random_instance(8, 10, 2, WeightModel::unit(), gen);
  OfflineResult res =
      partial_exact_optimum(inst, PartialCreditRule{.max_misses = 2});
  EXPECT_DOUBLE_EQ(res.value, 8.0);  // every set tolerates losing all
}

TEST(PartialExact, RejectsProratedRule) {
  InstanceBuilder b;
  b.add_set();
  b.add_element({0});
  Instance inst = b.build();
  EXPECT_THROW(
      partial_exact_optimum(inst, PartialCreditRule{.max_misses = 0,
                                                    .prorated = true}),
      RequireError);
}

TEST(PartialLp, UpperBoundsExact) {
  Rng master(6);
  for (int trial = 0; trial < 8; ++trial) {
    Rng gen = master.split(trial);
    Instance inst = random_instance(8, 10, 3, WeightModel::unit(), gen);
    for (std::size_t r : {0u, 1u}) {
      PartialCreditRule rule{.max_misses = r};
      OfflineResult exact = partial_exact_optimum(inst, rule);
      ASSERT_TRUE(exact.exact);
      double lp = partial_lp_upper_bound(inst, rule);
      EXPECT_GE(lp + 1e-6, exact.value)
          << inst.describe() << " r=" << r;
    }
  }
}

TEST(PartialRandPr, MissAwareFilteringHelps) {
  // With a miss budget, the filter should only write off sets past the
  // budget — earning more than the strict filter.
  Rng master(7);
  Instance inst = random_instance(24, 18, 4, WeightModel::unit(), master);
  PartialCreditRule rule{.max_misses = 1};
  RunningStat strict, budgeted;
  for (int t = 0; t < 600; ++t) {
    RandPr s(master.split(t), {.filter_dead = true, .allowed_misses = 0});
    RandPr b(master.split(t), {.filter_dead = true, .allowed_misses = 1});
    strict.add(play_partial(inst, s, rule).benefit);
    budgeted.add(play_partial(inst, b, rule).benefit);
  }
  EXPECT_GE(budgeted.mean() + budgeted.ci95_halfwidth() +
                strict.ci95_halfwidth(),
            strict.mean());
}

TEST(PartialRandPr, RatioShrinksWithMissBudget) {
  // The effective set size shrinks with the budget, so the measured
  // competitive ratio should fall.
  Rng master(8);
  Instance inst = random_instance(16, 14, 4, WeightModel::unit(), master);
  double prev_ratio = 1e9;
  for (std::size_t r : {0u, 1u, 2u}) {
    PartialCreditRule rule{.max_misses = r};
    OfflineResult opt = partial_exact_optimum(inst, rule);
    ASSERT_TRUE(opt.exact);
    RunningStat alg;
    for (int t = 0; t < 400; ++t) {
      RandPr a(master.split(t), {.filter_dead = true, .allowed_misses = r});
      alg.add(play_partial(inst, a, rule).benefit);
    }
    double ratio = opt.value / alg.mean();
    EXPECT_LT(ratio, prev_ratio + 0.35);  // allow noise, demand the trend
    prev_ratio = ratio;
  }
}

TEST(PartialRandPr, ParityPacketsRaiseVideoGoodput) {
  // Forward error correction on the video workload: with r parity packets
  // per frame a frame may lose r packets and still count, so both randPr
  // variants credit more of the offered value as r grows (randPr/filt:
  // 0.091, 0.155, 0.72 of it at r = 0, 1, 2 on these streams).
  Rng master(2234);
  std::vector<double> filt_goodput, plain_goodput;
  for (std::size_t r : {0u, 1u, 2u}) {
    const PartialCreditRule rule{.max_misses = r};
    double offered = 0, filt = 0, plain = 0;
    for (std::size_t d = 0; d < 20; ++d) {
      VideoParams params;
      params.num_streams = 10;
      params.frames_per_stream = 20;
      Rng wl = master.split(r * 100 + d);
      const Instance inst =
          make_video_workload(params, wl).schedule.to_instance(1);
      offered += inst.stats().total_weight;
      RandPr filtered(master.split(50000 + r * 100 + d),
                      {.filter_dead = true, .allowed_misses = r});
      filt += play_partial(inst, filtered, rule).benefit;
      RandPr paper(master.split(60000 + r * 100 + d));
      plain += play_partial(inst, paper, rule).benefit;
    }
    filt_goodput.push_back(filt / offered);
    plain_goodput.push_back(plain / offered);
  }
  for (std::size_t r = 1; r < 3; ++r) {
    EXPECT_GT(filt_goodput[r], filt_goodput[r - 1]) << "randPr/filt, r " << r;
    EXPECT_GT(plain_goodput[r], plain_goodput[r - 1]) << "randPr, r " << r;
  }
}

}  // namespace
}  // namespace osp
