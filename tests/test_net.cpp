// Tests for the network simulators: conservation laws, equivalence of the
// unbuffered router with the osp game (the paper's reduction, played
// directly and through the engine's trial), the game's rules enforced on
// both simulators, the frame rankers, schedule validation, and the
// distributed pipeline.  The buffered router is the serving runtime at
// one link; its tests live in test_serve.cpp.
#include <gtest/gtest.h>

#include <algorithm>

#include "algos/baselines.hpp"
#include "api/policy_registry.hpp"
#include "api/session.hpp"
#include "core/game.hpp"
#include "core/rand_pr.hpp"
#include "engine/batch_runner.hpp"
#include "gen/traffic.hpp"
#include "gen/video.hpp"
#include "net/pipeline.hpp"
#include "net/router_sim.hpp"
#include "net/serve.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

FrameSchedule sample_schedule(std::uint64_t seed, std::size_t frames = 60,
                              std::size_t k = 3) {
  Rng rng(seed);
  PoissonBursts bursts(2.5);
  return bursty_schedule(bursts, frames, k, rng);
}

/// Breaks the no-duplicates rule: chooses its first candidate twice
/// whenever the capacity and the candidates allow two choices.
class ChoosesFirstTwice final : public OnlineAlgorithm {
 public:
  std::string name() const override { return "chooses-first-twice"; }
  void start(const std::vector<SetMeta>&) override {}
  std::size_t decide(ElementId, Capacity capacity, const SetId* candidates,
                     std::size_t n, SetId* out) override {
    if (capacity < 2 || n < 2) return 0;
    out[0] = out[1] = candidates[0];
    return 2;
  }
};

/// Breaks the chosen-set-contains-the-element rule: answers the lowest set
/// id that is not a candidate (nothing when every set is one).
class ChoosesAbsentSet final : public OnlineAlgorithm {
 public:
  std::string name() const override { return "chooses-absent-set"; }
  void start(const std::vector<SetMeta>& sets) override {
    num_sets_ = sets.size();
  }
  std::size_t decide(ElementId, Capacity, const SetId* candidates,
                     std::size_t n, SetId* out) override {
    for (SetId s = 0; s < num_sets_; ++s)
      if (!std::binary_search(candidates, candidates + n, s)) {
        out[0] = s;
        return 1;
      }
    return 0;
  }

 private:
  std::size_t num_sets_ = 0;
};

TEST(Router, PacketConservation) {
  FrameSchedule sched = sample_schedule(1);
  GreedyFirst alg;
  RouterStats st = simulate_router(sched, alg, 1);
  EXPECT_EQ(st.packets_arrived, sched.total_packets());
  EXPECT_EQ(st.packets_served + st.packets_dropped, st.packets_arrived);
  EXPECT_EQ(st.frames_total, sched.frames.size());
  EXPECT_LE(st.frames_delivered, st.frames_total);
  EXPECT_LE(st.value_delivered, st.value_total + 1e-9);
}

TEST(Router, EquivalentToOspGame) {
  // The unbuffered router IS the osp game under the paper's reduction:
  // same algorithm seed => identical benefit, frame for frame.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    FrameSchedule sched = sample_schedule(100 + seed);
    RandPr router_alg{Rng(seed)};
    RandPr game_alg{Rng(seed)};
    RouterStats rs = simulate_router(sched, router_alg, 1);
    Outcome go = play(sched.to_instance(1), game_alg);
    EXPECT_DOUBLE_EQ(rs.value_delivered, go.benefit) << "seed " << seed;
    EXPECT_EQ(rs.frames_delivered, go.completed.size());
  }
}

TEST(Router, EquivalenceHoldsWithHigherServiceRate) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    FrameSchedule sched = sample_schedule(200 + seed, 80, 4);
    RandPr router_alg{Rng(seed)};
    RandPr game_alg{Rng(seed)};
    RouterStats rs = simulate_router(sched, router_alg, 2);
    Outcome go = play(sched.to_instance(2), game_alg);
    EXPECT_DOUBLE_EQ(rs.value_delivered, go.benefit);
  }
}

TEST(Router, EngineTrialOnTheInstanceMatchesSimulateRouter) {
  // bench_router's unbuffered sections play each policy through the
  // engine's trial on the schedule's to_instance(1) and read the frames
  // and value delivered from its TrialResult.  For every catalog policy,
  // on video and bursty schedules, that must be what simulate_router
  // reports on the same stream, at any runner worker count (several
  // trials per policy, so a worker's cached policy is reseeded too).
  std::vector<FrameSchedule> schedules;
  Rng gen(2024);
  VideoParams video;
  video.num_streams = 6;
  video.frames_per_stream = 20;
  schedules.push_back(make_video_workload(video, gen).schedule);
  OnOffBursts bursts(0.15, 0.1, 6.0, 0.1);
  schedules.push_back(bursty_schedule(bursts, 80, 3, gen, 1.0));
  schedules.push_back(sample_schedule(31));

  const std::vector<api::PolicyInfo>& policies = api::policies().entries();
  std::vector<engine::AlgSpec> columns;
  for (const api::PolicyInfo& p : policies)
    columns.push_back(api::grid_column(p));
  constexpr std::size_t kTrials = 3;
  const std::size_t count = columns.size() * kTrials;
  const auto stream = [](std::size_t idx) { return Rng(700 + idx); };
  for (const std::size_t workers : {1, 3}) {
    const engine::BatchRunner runner(
        engine::BatchOptions{.num_threads = workers});
    for (std::size_t s = 0; s < schedules.size(); ++s) {
      const Instance inst = schedules[s].to_instance(1);
      const std::vector<engine::TrialResult> got =
          runner.map<engine::TrialResult>(
              count, [&](std::size_t idx, engine::TrialContext& ctx) {
                const std::size_t p = idx % columns.size();
                return engine::run_play_trial_cached(inst, columns[p], p,
                                                     stream(idx), ctx);
              });
      for (std::size_t idx = 0; idx < count; ++idx) {
        const std::size_t p = idx % columns.size();
        const auto alg = policies[p].make(stream(idx));
        const RouterStats want = simulate_router(schedules[s], *alg, 1);
        const std::string where = policies[p].name + ", schedule " +
                                  std::to_string(s) + ", workers " +
                                  std::to_string(workers);
        EXPECT_EQ(got[idx].completed, want.frames_delivered) << where;
        EXPECT_EQ(got[idx].benefit, want.value_delivered) << where;
        EXPECT_EQ(got[idx].decisions, want.packets_served) << where;
      }
    }
  }
}

TEST(Router, RejectsAFrameServedTwiceInOneSlot) {
  // f0 = {1}, f1 = {0, 1}, f2 = {0}: two packets in each slot, service
  // rate 2.  Serving f1's slot-0 packet twice must not stand in for its
  // slot-1 packet: the router is the osp game, whose rules forbid choosing
  // a set twice for one element.
  FrameSchedule sched;
  sched.add_frame(1.0, {1});
  sched.add_frame(3.0, {0, 1});
  sched.add_frame(1.0, {0});
  sched.horizon = 2;
  ChoosesFirstTwice alg;
  EXPECT_THROW(simulate_router(sched, alg, 2), RequireError);
}

TEST(Router, AmpleCapacityDeliversEverything) {
  FrameSchedule sched = sample_schedule(3, 30, 2);
  Capacity ample = static_cast<Capacity>(sched.max_burst());
  GreedyFirst alg;
  RouterStats st = simulate_router(sched, alg, ample);
  EXPECT_EQ(st.frames_delivered, st.frames_total);
  EXPECT_EQ(st.packets_dropped, 0u);
}

TEST(Rankers, StartAndRank) {
  std::vector<SetMeta> frames{{4.0, 2}, {1.0, 2}};
  WeightRanker wr;
  wr.start(frames);
  EXPECT_GT(wr.rank(0), wr.rank(1));

  RandPrRanker rp{Rng(1)};
  rp.start(frames);
  EXPECT_NE(rp.rank(0), rp.rank(1));

  FifoRanker fifo;
  fifo.start(frames);
  EXPECT_DOUBLE_EQ(fifo.rank(0), fifo.rank(1));
}

TEST(Rankers, ReseedMatchesFreshConstruction) {
  std::vector<SetMeta> frames{{4.0, 2}, {1.0, 2}, {2.5, 3}};
  RandPrRanker fresh{Rng(99)};
  fresh.start(frames);
  RandPrRanker reused{Rng(1)};
  reused.start(frames);  // consume some randomness first
  reused.reseed(Rng(99));
  reused.start(frames);
  for (SetId f = 0; f < frames.size(); ++f)
    EXPECT_DOUBLE_EQ(reused.rank(f), fresh.rank(f));

  RandomRanker rfresh{Rng(5)};
  rfresh.start(frames);
  RandomRanker rreused{Rng(2)};
  rreused.start(frames);
  rreused.reseed(Rng(5));
  rreused.start(frames);
  for (SetId f = 0; f < frames.size(); ++f)
    EXPECT_DOUBLE_EQ(rreused.rank(f), rfresh.rank(f));
}

TEST(Router, NonPositiveFrameWeightsFailLoudly) {
  // A zero- or negative-weight frame must be rejected — not silently
  // clamped into a near-zero randPr priority — and so must a frame with no
  // packets, which would otherwise count as delivered.  Both fail when the
  // frame is added, so no router path ever sees one.
  FrameSchedule sched;
  EXPECT_THROW(sched.add_frame(0.0, {0}), RequireError);
  EXPECT_THROW(sched.add_frame(-1.0, {0}), RequireError);
  EXPECT_THROW(sched.add_frame(5.0, {}), RequireError);
  EXPECT_EQ(sched.frames.size(), 0u);

  // What is left to check per call, the horizon, every router path checks.
  sched.add_frame(1.0, {0, 2});
  sched.horizon = 2;
  EXPECT_THROW(sched.validate(), RequireError);
  GreedyFirst alg;
  EXPECT_THROW(simulate_router(sched, alg, 1), RequireError);
  FifoRanker fifo;
  EXPECT_THROW(serve_sustained(sched, {}, fifo, ServeSpec{}), RequireError);
  EXPECT_THROW(serve_sustained_reference(sched, {}, fifo, ServeSpec{}),
               RequireError);
  EXPECT_THROW(sched.to_instance(1), RequireError);
  EXPECT_THROW(sched.slot_frames(), RequireError);
}

TEST(Pipeline, ConservationAndBounds) {
  Rng rng(7);
  MultiHopParams params;
  params.num_switches = 4;
  params.num_packets = 50;
  params.horizon = 25;
  params.min_route = 2;
  params.max_route = 4;
  MultiHopWorkload w = make_multihop_workload(params, rng);
  PipelineStats st = simulate_pipeline(
      w, params.num_switches,
      [](std::size_t) { return std::make_unique<GreedyFirst>(); });
  EXPECT_EQ(st.packets_total, 50u);
  EXPECT_LE(st.packets_delivered, st.packets_total);
  EXPECT_LE(st.value_delivered, st.value_total + 1e-9);
  EXPECT_GE(st.delivery_rate(), 0.0);
}

TEST(Pipeline, NoContentionDeliversAll) {
  // One packet: nothing to contend with; it must arrive.
  Rng rng(8);
  MultiHopParams params;
  params.num_packets = 1;
  params.num_switches = 4;
  params.min_route = params.max_route = 4;
  MultiHopWorkload w = make_multihop_workload(params, rng);
  PipelineStats st = simulate_pipeline(
      w, params.num_switches,
      [](std::size_t) { return std::make_unique<GreedyFirst>(); });
  EXPECT_EQ(st.packets_delivered, 1u);
}

TEST(Pipeline, RejectsAnAnswerNamingAnAbsentPacket) {
  // A switch may only forward packets that are at it: an answer naming
  // any other packet breaks the rules of its game.
  Rng rng(7);
  MultiHopParams params;
  params.num_switches = 4;
  params.num_packets = 50;
  params.horizon = 25;
  params.min_route = 2;
  params.max_route = 4;
  MultiHopWorkload w = make_multihop_workload(params, rng);
  EXPECT_THROW(simulate_pipeline(w, params.num_switches,
                                 [](std::size_t) {
                                   return std::make_unique<ChoosesAbsentSet>();
                                 }),
               RequireError);
}

TEST(Pipeline, SharedHashBeatsIndependentRandomness) {
  // The paper's Section 3.1 point: one shared hash function gives every
  // switch consistent priorities; independent randomness at each switch
  // wastes capacity on packets that later lose anyway.
  //
  // Routes must be SHORT relative to the path: packets advance in
  // lockstep, so contention groups live on time-diagonals, and if every
  // route covers one common hop then exactly one packet per diagonal
  // survives it no matter what the policy does — delivery becomes
  // policy-invariant.  Short staggered routes avoid that degeneracy.
  Rng master(9);
  double shared_total = 0, indep_total = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    Rng wl_rng = master.split(t);
    MultiHopParams params;
    params.num_switches = 8;
    params.num_packets = 150;
    params.horizon = 18;
    params.min_route = 2;
    params.max_route = 4;
    MultiHopWorkload w = make_multihop_workload(params, wl_rng);

    Rng hash_rng = master.split(1000 + t);
    auto h = std::make_shared<PolynomialHash>(8, hash_rng);
    PipelineStats shared = simulate_pipeline(
        w, params.num_switches, [&](std::size_t) {
          return std::make_unique<RandPr>(
              [h](std::uint64_t key) { return h->unit(key); }, "shared");
        });

    Rng indep_rng = master.split(2000 + t);
    PipelineStats indep = simulate_pipeline(
        w, params.num_switches, [&](std::size_t s) {
          return std::make_unique<RandPr>(indep_rng.split(s));
        });
    shared_total += static_cast<double>(shared.packets_delivered);
    indep_total += static_cast<double>(indep.packets_delivered);
  }
  EXPECT_GT(shared_total, indep_total);
}

}  // namespace
}  // namespace osp
