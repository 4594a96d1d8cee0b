// Tests for the deterministic online baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "algos/baselines.hpp"
#include "core/game.hpp"
#include "gen/random_instances.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

TEST(GreedyFirst, PicksLowestIds) {
  InstanceBuilder b;
  b.add_sets(3);
  b.add_element({0, 1, 2}, 2);
  Instance inst = b.build();
  GreedyFirst alg;
  alg.start({{1, 1}, {1, 1}, {1, 1}});
  auto chosen = choose(alg, 0, 2, {0, 1, 2});
  EXPECT_EQ(chosen, (std::vector<SetId>{0, 1}));
}

TEST(GreedyMaxWeight, PrefersHeavySets) {
  GreedyMaxWeight alg;
  alg.start({{1.0, 1}, {5.0, 1}, {3.0, 1}});
  auto chosen = choose(alg, 0, 1, {0, 1, 2});
  EXPECT_EQ(chosen, (std::vector<SetId>{1}));
}

TEST(GreedyMaxWeight, TieBreaksTowardLowerId) {
  GreedyMaxWeight alg;
  alg.start({{2.0, 1}, {2.0, 1}});
  auto chosen = choose(alg, 0, 1, {0, 1});
  EXPECT_EQ(chosen, (std::vector<SetId>{0}));
}

TEST(GreedyMostProgress, ProtectsInvestment) {
  // S0 gets one element first; at the contended element it should win.
  GreedyMostProgress alg;
  alg.start({{1.0, 2}, {1.0, 1}});
  auto first = choose(alg, 0, 1, {0});
  EXPECT_EQ(first, (std::vector<SetId>{0}));
  auto second = choose(alg, 1, 1, {0, 1});
  EXPECT_EQ(second, (std::vector<SetId>{0}));
}

TEST(GreedyFewestRemaining, PrefersNearlyDoneSets) {
  // S0 declared size 3, S1 declared size 1: at their shared element the
  // size-1 set has fewer remaining elements.
  GreedyFewestRemaining alg;
  alg.start({{1.0, 3}, {1.0, 1}});
  auto chosen = choose(alg, 0, 1, {0, 1});
  EXPECT_EQ(chosen, (std::vector<SetId>{1}));
}

TEST(GreedyDensity, WeighsValuePerRemainingElement) {
  // S0: weight 10, size 5 (density 2); S1: weight 3, size 1 (density 3).
  GreedyDensity alg;
  alg.start({{10.0, 5}, {3.0, 1}});
  auto chosen = choose(alg, 0, 1, {0, 1});
  EXPECT_EQ(chosen, (std::vector<SetId>{1}));
}

TEST(ScoredBaselines, AvoidDeadSets) {
  // After S0 loses an element, every scored baseline must prefer the
  // still-active S1.
  for (auto& alg : make_deterministic_baselines()) {
    alg->start({{5.0, 2}, {1.0, 2}});
    // S0 and S1 compete; suppose the element goes to S1... we force the
    // scenario by presenting S0 alone with capacity... instead: present
    // {0,1} and see who wins, then kill the loser's rival check later.
    auto first = choose(*alg, 0, 1, {0, 1});
    ASSERT_EQ(first.size(), 1u);
    SetId winner = first[0];
    SetId loser = winner == 0 ? 1 : 0;
    // At the next contended element the loser is dead; winner must be
    // chosen regardless of weights.
    auto second = choose(*alg, 1, 1, {winner, loser});
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0], winner) << alg->name();
  }
}

TEST(ScoredBaselines, FillWithDeadWhenCapacityAllows) {
  GreedyFirst alg;
  alg.start({{1, 2}, {1, 2}, {1, 2}});
  choose(alg, 0, 1, {0, 1});   // kills one of 0/1
  auto chosen = choose(alg, 1, 3, {0, 1, 2});
  EXPECT_EQ(chosen.size(), 3u);  // uses full capacity including dead sets
}

TEST(RoundRobin, CursorPrefersLaterIds) {
  // After serving set 2 the cursor sits at 3, so among fresh candidates
  // {0, 3} the rotation favours 3, then among {1, 4} it favours 4.
  RoundRobin alg;
  alg.start(std::vector<SetMeta>(5, SetMeta{1.0, 1}));
  EXPECT_EQ(choose(alg, 0, 1, {2}), (std::vector<SetId>{2}));
  EXPECT_EQ(choose(alg, 1, 1, {0, 3}), (std::vector<SetId>{3}));
  EXPECT_EQ(choose(alg, 2, 1, {1, 4}), (std::vector<SetId>{4}));
}

TEST(UniformRandomChoice, RespectsCapacity) {
  UniformRandomChoice alg{Rng(3)};
  alg.start(std::vector<SetMeta>(10, SetMeta{1, 1}));
  std::vector<SetId> all{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto chosen = choose(alg, 0, 4, all);
  EXPECT_EQ(chosen.size(), 4u);
  std::sort(chosen.begin(), chosen.end());
  EXPECT_EQ(std::adjacent_find(chosen.begin(), chosen.end()), chosen.end());
}

TEST(UniformRandomChoice, RoughlyUniform) {
  Rng master(5);
  std::vector<int> counts(4, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    UniformRandomChoice alg{master.split(t)};
    alg.start(std::vector<SetMeta>(4, SetMeta{1, 1}));
    auto chosen = choose(alg, 0, 1, {0, 1, 2, 3});
    ++counts[chosen.at(0)];
  }
  for (int c : counts)
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.25, 0.02);
}

TEST(AllBaselines, PlayFullGamesLegally) {
  Rng gen(6);
  Instance inst = random_instance(25, 30, 3, WeightModel::uniform(1, 5), gen);
  for (auto& alg : make_deterministic_baselines()) {
    Outcome out;
    EXPECT_NO_THROW(out = play(inst, *alg)) << alg->name();
  }
}

TEST(AllBaselines, DistinctNames) {
  auto algs = make_deterministic_baselines();
  std::set<std::string> names;
  for (auto& a : algs) names.insert(a->name());
  EXPECT_EQ(names.size(), algs.size());
}

TEST(Baselines, DeterministicReplay) {
  Rng gen(7);
  Instance inst = random_instance(20, 25, 3, WeightModel::unit(), gen);
  for (std::size_t idx = 0; idx < make_deterministic_baselines().size();
       ++idx) {
    auto a1 = std::move(make_deterministic_baselines()[idx]);
    auto a2 = std::move(make_deterministic_baselines()[idx]);
    EXPECT_EQ(play(inst, *a1).completed, play(inst, *a2).completed);
  }
}

}  // namespace
}  // namespace osp
