// Tests for the game engine: rule enforcement, scoring, adaptive engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/game.hpp"
#include "core/rand_pr.hpp"
#include "util/require.hpp"

namespace osp {
namespace {

// Scripted algorithm: returns pre-programmed answers in order.  It writes
// at most the min(capacity, candidates) entries `out` has room for but
// returns the scripted count, so an over-capacity script still reaches
// (and is rejected by) the engine's checks.
class Scripted final : public OnlineAlgorithm {
 public:
  explicit Scripted(std::vector<std::vector<SetId>> answers)
      : answers_(std::move(answers)) {}
  std::string name() const override { return "scripted"; }
  void start(const std::vector<SetMeta>& sets) override { metas_ = sets; }
  std::size_t decide(ElementId u, Capacity capacity, const SetId*,
                     std::size_t num_candidates, SetId* out) override {
    const std::vector<SetId>& answer = answers_.at(u);
    const std::size_t room = std::min<std::size_t>(capacity, num_candidates);
    std::copy_n(answer.begin(), std::min(answer.size(), room), out);
    return answer.size();
  }
  const std::vector<SetMeta>& metas() const { return metas_; }

 private:
  std::vector<std::vector<SetId>> answers_;
  std::vector<SetMeta> metas_;
};

Instance two_sets() {
  // S0 = {e0, e1} w=1, S1 = {e0, e2} w=2.
  InstanceBuilder b;
  b.add_set(1.0);
  b.add_set(2.0);
  b.add_element({0, 1});
  b.add_element({0});
  b.add_element({1});
  return b.build();
}

TEST(Play, CompletesChosenSet) {
  Instance inst = two_sets();
  Scripted alg({{0}, {0}, {1}});
  Outcome out = play(inst, alg);
  EXPECT_EQ(out.completed, (std::vector<SetId>{0}));
  EXPECT_DOUBLE_EQ(out.benefit, 1.0);
  EXPECT_TRUE(out.completed_mask[0]);
  EXPECT_FALSE(out.completed_mask[1]);  // missed e0
  EXPECT_EQ(out.decisions, 3u);
}

TEST(Play, OtherChoiceCompletesOtherSet) {
  Instance inst = two_sets();
  Scripted alg({{1}, {}, {1}});
  Outcome out = play(inst, alg);
  EXPECT_EQ(out.completed, (std::vector<SetId>{1}));
  EXPECT_DOUBLE_EQ(out.benefit, 2.0);
}

TEST(Play, DecliningEverythingCompletesNothing) {
  Instance inst = two_sets();
  Scripted alg({{}, {}, {}});
  Outcome out = play(inst, alg);
  EXPECT_TRUE(out.completed.empty());
  EXPECT_DOUBLE_EQ(out.benefit, 0.0);
}

TEST(Play, AnnouncesMetadata) {
  Instance inst = two_sets();
  Scripted alg({{}, {}, {}});
  play(inst, alg);
  ASSERT_EQ(alg.metas().size(), 2u);
  EXPECT_DOUBLE_EQ(alg.metas()[0].weight, 1.0);
  EXPECT_EQ(alg.metas()[0].size, 2u);
  EXPECT_EQ(alg.metas()[1].size, 2u);
}

TEST(Play, RejectsOverCapacity) {
  Instance inst = two_sets();
  Scripted alg({{0, 1}, {}, {}});  // e0 has capacity 1
  EXPECT_THROW(play(inst, alg), RequireError);
}

TEST(Play, RejectsNonParent) {
  Instance inst = two_sets();
  Scripted alg({{0}, {1}, {}});  // e1's only parent is S0
  EXPECT_THROW(play(inst, alg), RequireError);
}

TEST(Play, RejectsDuplicateChoice) {
  InstanceBuilder b;
  b.add_sets(2);
  b.add_element({0, 1}, 2);
  Instance inst = b.build();
  Scripted alg({{0, 0}});
  EXPECT_THROW(play(inst, alg), RequireError);
}

TEST(Play, CapacityTwoAllowsBothSets) {
  InstanceBuilder b;
  b.add_sets(2);
  b.add_element({0, 1}, 2);
  Instance inst = b.build();
  Scripted alg({{0, 1}});
  Outcome out = play(inst, alg);
  EXPECT_EQ(out.completed.size(), 2u);
}

TEST(Play, AHugeCapacityIsBoundedByTheCandidates) {
  // b(u) = 2^32 - 1 is a valid capacity, but a decision chooses at most
  // |C(u)| sets: every engine must size its decision buffer by
  // min(b(u), |C(u)|), not by b(u).
  constexpr Capacity kHuge = std::numeric_limits<Capacity>::max();
  InstanceBuilder b;
  b.add_sets(2);
  b.add_element({0, 1}, kHuge);
  const Instance inst = b.build();
  EXPECT_EQ(inst.max_choices(), 2u);
  RandPr via_play(Rng(1));
  EXPECT_EQ(play(inst, via_play).completed.size(), 2u);
  PlayScratch scratch;
  RandPr via_flat(Rng(1));
  EXPECT_EQ(play_flat(inst, via_flat, scratch).completed.size(), 2u);
  RandPr via_blocks(Rng(1));
  EXPECT_EQ(play_flat_blocks(inst, via_blocks, scratch).completed.size(), 2u);
  RandPr stepped(Rng(1));
  GameEngine engine({{1.0, 1}, {1.0, 1}}, stepped);
  EXPECT_EQ(engine.step({1, 0}, kHuge), (std::vector<SetId>{0, 1}));
  EXPECT_EQ(engine.finish().completed.size(), 2u);
}

TEST(Play, EmptySetCompletesVacuously) {
  InstanceBuilder b;
  b.add_set(7.0);
  Instance inst = b.build();
  Scripted alg{std::vector<std::vector<SetId>>{}};
  Outcome out = play(inst, alg);
  EXPECT_EQ(out.completed, (std::vector<SetId>{0}));
  EXPECT_DOUBLE_EQ(out.benefit, 7.0);
}

TEST(Play, PartialAssignmentDoesNotComplete) {
  // Choosing a set at some but not all of its elements earns nothing.
  InstanceBuilder b;
  b.add_set(1.0);
  b.add_element({0});
  b.add_element({0});
  b.add_element({0});
  Instance inst = b.build();
  Scripted alg({{0}, {0}, {}});
  Outcome out = play(inst, alg);
  EXPECT_TRUE(out.completed.empty());
}

TEST(GameEngine, TracksActivity) {
  std::vector<SetMeta> metas{{1.0, 2}, {1.0, 2}};
  Scripted alg({{0}, {0}, {1}});
  GameEngine engine(metas, alg);
  engine.step({0, 1});
  EXPECT_TRUE(engine.is_alg_active(0));
  EXPECT_FALSE(engine.is_alg_active(1));  // candidate but not chosen
  engine.step({0});
  EXPECT_TRUE(engine.is_alg_active(0));
  Outcome out = engine.finish();
  EXPECT_EQ(out.completed, (std::vector<SetId>{0}));
}

TEST(GameEngine, FinishRequiresDeclaredSize) {
  // A set that stayed active but got fewer elements than declared is not
  // complete.
  std::vector<SetMeta> metas{{1.0, 3}};
  Scripted alg{std::vector<std::vector<SetId>>{{0}}};
  GameEngine engine(metas, alg);
  engine.step({0});
  Outcome out = engine.finish();
  EXPECT_TRUE(out.completed.empty());
}

TEST(GameEngine, PresentedCounts) {
  std::vector<SetMeta> metas{{1.0, 2}, {1.0, 1}};
  Scripted alg({{0}, {}});
  GameEngine engine(metas, alg);
  engine.step({0, 1});
  engine.step({0});  // scripted answer {} — declines
  EXPECT_EQ(engine.presented(0), 2u);
  EXPECT_EQ(engine.presented(1), 1u);
  EXPECT_FALSE(engine.is_alg_active(0));  // declined its second element
}

TEST(GameEngine, StepValidatesAnswer) {
  std::vector<SetMeta> metas{{1.0, 1}, {1.0, 1}};
  Scripted alg({{0, 1}});
  GameEngine engine(metas, alg);
  EXPECT_THROW(engine.step({0, 1}, 1), RequireError);  // over capacity
}

TEST(ActiveTracking, SeenAndProgress) {
  class Probe final : public ActiveTracking {
   public:
    std::string name() const override { return "probe"; }
    std::size_t decide(ElementId, Capacity, const SetId* candidates,
                       std::size_t num_candidates, SetId* out) override {
      const std::vector<SetId> c(candidates, candidates + num_candidates);
      std::vector<SetId> chosen;
      if (!c.empty()) chosen.push_back(c.front());
      record(c, chosen);
      std::copy(chosen.begin(), chosen.end(), out);
      return chosen.size();
    }
  };
  Probe p;
  p.start({{1.0, 2}, {1.0, 2}});
  choose(p, 0, 1, {0, 1});
  EXPECT_TRUE(p.is_active(0));
  EXPECT_FALSE(p.is_active(1));
  EXPECT_EQ(p.progress(0), 1u);
  EXPECT_EQ(p.seen(1), 1u);
  EXPECT_EQ(p.remaining(0), 1u);
}

}  // namespace
}  // namespace osp
