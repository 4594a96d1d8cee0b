// Tests for the workload generators: parameter conformance and the
// structural guarantees each family promises.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <set>

#include "api/scenario.hpp"
#include "gen/multihop.hpp"
#include "gen/random_instances.hpp"
#include "gen/schedule.hpp"
#include "gen/traffic.hpp"
#include "gen/video.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

TEST(WeightModels, RangesRespected) {
  Rng rng(1);
  for (std::size_t r = 0; r < 200; ++r) {
    EXPECT_DOUBLE_EQ(draw_weight(WeightModel::unit(), r, rng), 1.0);
    double u = draw_weight(WeightModel::uniform(2, 5), r, rng);
    EXPECT_GE(u, 2.0);
    EXPECT_LE(u, 5.0);
    EXPECT_GE(draw_weight(WeightModel::exponential(1.0), r, rng), 1.0);
  }
}

TEST(WeightModels, ZipfDecreasesWithRank) {
  Rng rng(2);
  double w0 = draw_weight(WeightModel::zipf(1.2), 0, rng);
  double w9 = draw_weight(WeightModel::zipf(1.2), 9, rng);
  EXPECT_GT(w0, w9);
}

TEST(RandomInstance, UniformSizeK) {
  Rng rng(3);
  Instance inst = random_instance(30, 50, 4, WeightModel::unit(), rng);
  EXPECT_EQ(inst.num_sets(), 30u);
  for (SetId s = 0; s < inst.num_sets(); ++s)
    EXPECT_EQ(inst.set_size(s), 4u);
  EXPECT_LE(inst.num_elements(), 50u);
  EXPECT_TRUE(inst.stats().uniform_size);
}

TEST(RandomInstance, DropsEmptySlots) {
  Rng rng(4);
  // 2 sets of size 2 over 100 slots: at most 4 distinct elements remain.
  Instance inst = random_instance(2, 100, 2, WeightModel::unit(), rng);
  EXPECT_LE(inst.num_elements(), 4u);
  for (ElementId u = 0; u < inst.num_elements(); ++u)
    EXPECT_GE(inst.load(u), 1u);
}

TEST(RandomInstance, RejectsKLargerThanN) {
  Rng rng(5);
  EXPECT_THROW(random_instance(3, 4, 5, WeightModel::unit(), rng),
               RequireError);
}

TEST(RandomCapacityInstance, CapacitiesInRange) {
  Rng rng(6);
  Instance inst =
      random_capacity_instance(20, 30, 3, 4, WeightModel::unit(), rng);
  bool saw_above_one = false;
  for (ElementId u = 0; u < inst.num_elements(); ++u) {
    EXPECT_GE(inst.arrival(u).capacity, 1u);
    EXPECT_LE(inst.arrival(u).capacity, 4u);
    if (inst.arrival(u).capacity > 1) saw_above_one = true;
  }
  EXPECT_TRUE(saw_above_one);
}

TEST(FixedLoadInstance, UniformLoadAndFullCoverage) {
  Rng rng(7);
  Instance inst = fixed_load_instance(20, 40, 4, WeightModel::unit(), rng);
  EXPECT_EQ(inst.num_elements(), 40u);
  for (ElementId u = 0; u < inst.num_elements(); ++u)
    EXPECT_EQ(inst.load(u), 4u);
  for (SetId s = 0; s < inst.num_sets(); ++s)
    EXPECT_GE(inst.set_size(s), 1u) << "set " << s << " uncovered";
  EXPECT_TRUE(inst.stats().uniform_load);
}

TEST(FixedLoadInstance, ParameterValidation) {
  Rng rng(8);
  EXPECT_THROW(fixed_load_instance(10, 40, 11, WeightModel::unit(), rng),
               RequireError);  // sigma > m
  EXPECT_THROW(fixed_load_instance(100, 3, 4, WeightModel::unit(), rng),
               RequireError);  // cannot cover
}

TEST(RegularInstance, BiRegular) {
  Rng rng(9);
  Instance inst = regular_instance(24, 3, 4, WeightModel::unit(), rng);
  EXPECT_EQ(inst.num_sets(), 24u);
  EXPECT_EQ(inst.num_elements(), 24u * 3 / 4);
  for (SetId s = 0; s < inst.num_sets(); ++s)
    EXPECT_EQ(inst.set_size(s), 3u);
  for (ElementId u = 0; u < inst.num_elements(); ++u)
    EXPECT_EQ(inst.load(u), 4u);
  InstanceStats st = inst.stats();
  EXPECT_TRUE(st.uniform_size);
  EXPECT_TRUE(st.uniform_load);
}

TEST(RegularInstance, ManyParameterCombos) {
  Rng rng(10);
  for (auto [m, k, sigma] :
       {std::tuple{10, 2, 4}, {12, 3, 6}, {16, 4, 8}, {20, 5, 10},
        {8, 2, 2}, {30, 3, 5}}) {
    Instance inst = regular_instance(m, k, sigma, WeightModel::unit(), rng);
    InstanceStats st = inst.stats();
    EXPECT_TRUE(st.uniform_size && st.uniform_load)
        << "m=" << m << " k=" << k << " s=" << sigma;
  }
}

TEST(RegularInstance, DivisibilityEnforced) {
  Rng rng(11);
  EXPECT_THROW(regular_instance(10, 3, 4, WeightModel::unit(), rng),
               RequireError);
}

// Folds every word that defines an instance: the counts, each weight's
// bits, and each element's capacity and parent row.
std::uint64_t fingerprint(const Instance& inst) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ULL;
    h ^= h >> 29;
  };
  add(inst.num_sets());
  add(inst.num_elements());
  for (Weight w : inst.weights()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &w, sizeof bits);
    add(bits);
  }
  for (ElementId u = 0; u < inst.num_elements(); ++u) {
    add(inst.capacity(u));
    add(inst.load(u));
    for (SetId s : inst.parents(u)) add(s);
  }
  return h;
}

// The generators' output, pinned word for word.  Every instance, every
// decision and every committed artifact depends on each generator drawing
// from its Rng in one fixed order (a set's weight, then its distinct
// slots, then one capacity per used slot), so a rewrite of how instances
// are built must reproduce these digests.  k·3 >= n takes the shuffle
// path of the distinct draw and k·3 < n the rejection path; the two
// random cases at n = 30 and n = 31 sit on either side of that switch.
TEST(GeneratorOutput, FingerprintsArePinned) {
  struct Case {
    const char* name;
    std::function<Instance(Rng&)> build;
    std::uint64_t digest;     // fingerprint() of the instance
    std::uint64_t next_draw;  // the Rng's next word after the build
  };
  const WeightModel unit = WeightModel::unit();
  const WeightModel uniform = WeightModel::uniform(1, 10);
  const WeightModel expo = WeightModel::exponential(0.5);
  auto ladder_cell = [](const char* label) {
    return [label](Rng& r) {
      for (const api::ScenarioSpec& cell : api::engine_shapes())
        if (cell.display_label() == label) return api::build_instance(cell, r);
      ADD_FAILURE() << "engine/ladder has no cell " << label;
      return InstanceBuilder{}.build();
    };
  };
  const Case cases[] = {
      {"random sparse unit",
       [&](Rng& r) { return random_instance(64, 512, 8, unit, r); },
       3786376542797235138ULL, 17488289162679671349ULL},
      {"random sparse uniform",
       [&](Rng& r) { return random_instance(64, 512, 8, uniform, r); },
       14269151755848135207ULL, 11390158773411756511ULL},
      {"random sparse exponential",
       [&](Rng& r) { return random_instance(64, 512, 8, expo, r); },
       15053959832663431038ULL, 17240635287186341116ULL},
      {"random sparse at the switch",
       [&](Rng& r) { return random_instance(24, 31, 10, uniform, r); },
       18040385098706658402ULL, 16588102263395645649ULL},
      {"random dense at the switch",
       [&](Rng& r) { return random_instance(24, 30, 10, uniform, r); },
       26099778210407771ULL, 1172781159617369930ULL},
      {"random dense unit",
       [&](Rng& r) { return random_instance(40, 24, 12, unit, r); },
       14647679787813041686ULL, 13370942368096031030ULL},
      {"random dense exponential",
       [&](Rng& r) { return random_instance(40, 24, 24, expo, r); },
       7565543191506173331ULL, 16989139911409345693ULL},
      {"capacity cap-max 1",
       [&](Rng& r) {
         return random_capacity_instance(64, 256, 6, 1, uniform, r);
       },
       16206149167492403434ULL, 6679960933415552383ULL},
      {"capacity cap-max 8",
       [&](Rng& r) {
         return random_capacity_instance(64, 256, 6, 8, uniform, r);
       },
       547869482076097764ULL, 6072134290827601544ULL},
      {"fixed load",
       [&](Rng& r) { return fixed_load_instance(48, 96, 4, uniform, r); },
       2560558422467703488ULL, 2806473310180093979ULL},
      {"regular",
       [&](Rng& r) { return regular_instance(24, 4, 3, expo, r); },
       4351427952529713093ULL, 8002532244942903510ULL},
      {"engine/ladder router/32k", ladder_cell("router/32k"),
       3162893129870989119ULL, 13963590478148564307ULL},
  };
  std::uint64_t seed = 101;
  for (const Case& c : cases) {
    Rng rng(seed++);
    EXPECT_EQ(fingerprint(c.build(rng)), c.digest) << c.name;
    EXPECT_EQ(rng(), c.next_draw) << c.name << ": the build drew a "
                                  << "different number of words";
  }
}

TEST(FrameSchedule, ReductionMatchesPaper) {
  FrameSchedule sched;
  sched.add_frame(2.0, {0, 1});
  sched.add_frame(1.0, {1, 2});
  sched.horizon = 4;  // slot 3 empty
  Instance inst = sched.to_instance(1);
  EXPECT_EQ(inst.num_sets(), 2u);
  EXPECT_EQ(inst.num_elements(), 3u);  // empty slot dropped
  EXPECT_EQ(inst.arrival(1).parents, (std::vector<SetId>{0, 1}));
  EXPECT_DOUBLE_EQ(inst.weight(0), 2.0);
}

TEST(FrameSchedule, ToInstanceEqualsTheBuilderReduction) {
  // to_instance hands slot_frames()' rows straight to Instance::from_csr;
  // the reduction spelled out through InstanceBuilder must agree with it.
  auto built = [](const FrameSchedule& sched, Capacity rate) {
    const CsrArray<SetId> bursts = sched.slot_frames();
    InstanceBuilder b;
    for (Weight w : sched.frames.weights()) b.add_set(w);
    for (std::size_t slot = 0; slot < sched.horizon; ++slot)
      if (bursts.row_size(slot) > 0)
        b.add_element(bursts.row(slot).to_vector(), rate);
    return b.build();
  };
  Rng rng(41);
  VideoParams video;
  video.num_streams = 6;
  video.frames_per_stream = 12;
  PoissonBursts poisson(2.0);
  const FrameSchedule schedules[] = {
      make_video_workload(video, rng).schedule,
      bursty_schedule(poisson, 60, 3, rng, 1.5)};
  for (const FrameSchedule& sched : schedules) {
    for (Capacity rate : {1u, 3u}) {
      const Instance got = sched.to_instance(rate);
      const Instance want = built(sched, rate);
      EXPECT_EQ(got.weights(), want.weights());
      EXPECT_EQ(got.set_sizes(), want.set_sizes());
      EXPECT_EQ(got.max_choices(), want.max_choices());
      ASSERT_EQ(got.num_elements(), want.num_elements());
      for (ElementId u = 0; u < got.num_elements(); ++u) {
        EXPECT_EQ(got.capacity(u), want.capacity(u)) << u;
        EXPECT_EQ(got.parents(u), want.parents(u)) << u;
      }
      for (SetId s = 0; s < got.num_sets(); ++s)
        EXPECT_EQ(got.elements_of(s), want.elements_of(s)) << s;
    }
  }
}

TEST(FrameSchedule, BurstProfile) {
  FrameSchedule sched;
  sched.add_frame(1.0, {0, 1});
  sched.add_frame(1.0, {1});
  sched.horizon = 2;
  EXPECT_EQ(sched.burst_profile(), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(sched.max_burst(), 2u);
  EXPECT_EQ(sched.total_packets(), 3u);
}

TEST(FrameSchedule, ValidateRejectsBadSlots) {
  // Unsorted slots fail at construction; a horizon that does not cover a
  // slot fails validate().
  FrameSchedule sched;
  EXPECT_THROW(sched.add_frame(1.0, {3, 1}), RequireError);  // not sorted
  EXPECT_EQ(sched.frames.size(), 0u);
  sched.add_frame(1.0, {1, 9});
  sched.horizon = 5;  // 9 is beyond it
  EXPECT_THROW(sched.validate(), RequireError);
  sched.horizon = 9;  // still one short
  EXPECT_THROW(sched.validate(), RequireError);
  sched.horizon = 10;
  EXPECT_NO_THROW(sched.validate());
}

TEST(FrameSchedule, AddFrameRejectsBadFrames) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  FrameSchedule sched;
  for (double bad : {0.0, -1.0, nan})
    EXPECT_THROW(sched.add_frame(bad, {0}), RequireError) << bad;
  EXPECT_THROW(sched.add_frame(1.0, {}), RequireError);         // no packets
  EXPECT_THROW(sched.add_frame(1.0, {2, 1}), RequireError);     // unsorted
  EXPECT_THROW(sched.add_frame(1.0, {1, 1}), RequireError);     // duplicate
  EXPECT_THROW(sched.add_frame(1.0, {0, 2, 2}), RequireError);  // duplicate
  const std::size_t past_u32 = std::size_t{1} << 32;
  EXPECT_THROW(sched.add_frame(1.0, {past_u32}), RequireError);
  EXPECT_THROW(sched.add_frame(1.0, {0, past_u32}), RequireError);
  EXPECT_THROW(sched.add_frame(1.0, {std::numeric_limits<std::size_t>::max()}),
               RequireError);
  // A rejected frame leaves the schedule as it was.
  EXPECT_EQ(sched.frames.size(), 0u);
  EXPECT_EQ(sched.total_packets(), 0u);

  sched.add_frame(2.5, {past_u32 - 2, past_u32 - 1});  // the largest slots
  ASSERT_EQ(sched.frames.size(), 1u);
  EXPECT_DOUBLE_EQ(sched.frames[0].weight, 2.5);
  EXPECT_EQ(sched.frames[0].packet_slots,
            (std::vector<std::uint32_t>{0xfffffffeU, 0xffffffffU}));
  EXPECT_EQ(sched.frames.slot_end(), past_u32);
}

TEST(FrameSchedule, FramesAreViewsIntoFlatStorage) {
  FrameSchedule sched;
  sched.reserve(3, 6);
  sched.add_frame(1.0, {0, 2});
  sched.add_frame(4.0, {1});
  sched.add_frame(2.0, {0, 1, 3});
  sched.horizon = 4;
  EXPECT_EQ(sched.frames.weights(), (std::vector<Weight>{1.0, 4.0, 2.0}));
  EXPECT_EQ(sched.frames.slots().values(),
            (std::vector<std::uint32_t>{0, 2, 1, 0, 1, 3}));
  EXPECT_EQ(sched.total_packets(), 6u);
  std::size_t id = 0;
  for (const Frame& f : sched.frames) {
    EXPECT_DOUBLE_EQ(f.weight, sched.frames.weights()[id]);
    EXPECT_EQ(f.packet_slots, sched.frames.slots().row(id));
    ++id;
  }
  EXPECT_EQ(id, 3u);

  // The inverse rows: frames per slot, ascending frame id.
  const CsrArray<SetId> slot_frames = sched.slot_frames();
  ASSERT_EQ(slot_frames.num_rows(), 4u);
  EXPECT_EQ(slot_frames.row(0), (std::vector<SetId>{0, 2}));
  EXPECT_EQ(slot_frames.row(1), (std::vector<SetId>{1, 2}));
  EXPECT_EQ(slot_frames.row(2), (std::vector<SetId>{0}));
  EXPECT_EQ(slot_frames.row(3), (std::vector<SetId>{2}));
}

TEST(Traffic, PoissonMeanRoughlyLambda) {
  Rng rng(12);
  PoissonBursts p(3.0);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(p.next(rng));
  EXPECT_NEAR(total / n, 3.0, 0.1);
}

TEST(Traffic, RatesOutsideThePoissonDomainThrow) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {0.0, -1.0, 1e300, inf, nan})
    EXPECT_THROW(PoissonBursts{bad}, RequireError) << bad;
  for (double bad : {-1.0, 1e300, inf, nan}) {
    EXPECT_THROW(OnOffBursts(0.1, 0.1, bad, 0.2), RequireError) << bad;
    EXPECT_THROW(OnOffBursts(0.1, 0.1, 6.0, bad), RequireError) << bad;
  }
  EXPECT_NO_THROW(PoissonBursts{Rng::kMaxPoissonMean});
  EXPECT_NO_THROW(OnOffBursts(0.1, 0.1, 0.0, 0.0));
}

TEST(Traffic, ConstantIsConstant) {
  Rng rng(13);
  ConstantBursts c(4);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(c.next(rng), 4u);
}

TEST(Traffic, OnOffProducesBothRegimes) {
  Rng rng(14);
  OnOffBursts oo(0.1, 0.1, 6.0, 0.2);
  std::size_t zeros = 0, bigs = 0;
  for (int i = 0; i < 5000; ++i) {
    std::size_t b = oo.next(rng);
    if (b == 0) ++zeros;
    if (b >= 4) ++bigs;
  }
  EXPECT_GT(zeros, 100u);
  EXPECT_GT(bigs, 100u);
}

TEST(Traffic, BurstyScheduleShape) {
  Rng rng(15);
  PoissonBursts p(2.0);
  FrameSchedule sched = bursty_schedule(p, 50, 3, rng);
  EXPECT_EQ(sched.frames.size(), 50u);
  for (const Frame& f : sched.frames) {
    EXPECT_EQ(f.packet_slots.size(), 3u);
    // Packets on consecutive slots.
    EXPECT_EQ(f.packet_slots[2], f.packet_slots[0] + 2);
  }
  EXPECT_NO_THROW(sched.validate());
}

TEST(Traffic, BurstyScheduleRejectsBadWeights) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {0.0, -1.0, nan}) {
    Rng rng(15);
    ConstantBursts bursts(2);
    EXPECT_THROW(bursty_schedule(bursts, 4, 2, rng, bad), RequireError)
        << bad;
  }
}

TEST(Video, WorkloadShape) {
  Rng rng(16);
  VideoParams params;
  VideoWorkload vw = make_video_workload(params, rng);
  EXPECT_EQ(vw.schedule.frames.size(),
            params.num_streams * params.frames_per_stream);
  EXPECT_EQ(vw.kinds.size(), vw.schedule.frames.size());
  // I frames have the declared packet count and weight.
  for (std::size_t f = 0; f < vw.schedule.frames.size(); ++f) {
    if (vw.kinds[f] == FrameKind::kIntra) {
      EXPECT_EQ(vw.schedule.frames[f].packet_slots.size(),
                params.i_frame_packets);
      EXPECT_DOUBLE_EQ(vw.schedule.frames[f].weight, params.i_frame_weight);
    } else {
      EXPECT_EQ(vw.schedule.frames[f].packet_slots.size(),
                params.p_frame_packets);
    }
  }
}

TEST(Video, GopStructure) {
  Rng rng(17);
  VideoParams params;
  params.num_streams = 1;
  params.frames_per_stream = 24;
  params.gop_length = 12;
  VideoWorkload vw = make_video_workload(params, rng);
  int intras = 0;
  for (auto kind : vw.kinds)
    if (kind == FrameKind::kIntra) ++intras;
  EXPECT_EQ(intras, 2);  // frames 0 and 12
  EXPECT_EQ(vw.kinds[0], FrameKind::kIntra);
  EXPECT_EQ(vw.kinds[12], FrameKind::kIntra);
  EXPECT_EQ(vw.kinds[1], FrameKind::kPredicted);
}

TEST(Video, ReductionIsPlayable) {
  Rng rng(18);
  VideoParams params;
  params.num_streams = 4;
  params.frames_per_stream = 10;
  VideoWorkload vw = make_video_workload(params, rng);
  Instance inst = vw.schedule.to_instance(1);
  EXPECT_EQ(inst.num_sets(), vw.schedule.frames.size());
  EXPECT_GT(inst.stats().sigma_max, 1u);  // streams actually collide
}

TEST(MultiHop, RouteGeometry) {
  Rng rng(19);
  MultiHopParams params;
  params.num_switches = 5;
  params.num_packets = 60;
  params.min_route = 2;
  params.max_route = 5;
  MultiHopWorkload w = make_multihop_workload(params, rng);
  EXPECT_EQ(w.instance.num_sets(), 60u);
  for (std::size_t p = 0; p < 60; ++p) {
    EXPECT_GE(w.route_len[p], 2u);
    EXPECT_LE(w.route_len[p], 5u);
    EXPECT_LE(w.entry_hop[p] + w.route_len[p], params.num_switches);
    EXPECT_EQ(w.instance.set_size(static_cast<SetId>(p)), w.route_len[p]);
  }
}

TEST(MultiHop, ElementsAreSharedLinkSlots) {
  Rng rng(20);
  MultiHopParams params;
  params.num_packets = 100;
  params.horizon = 10;  // force heavy contention
  MultiHopWorkload w = make_multihop_workload(params, rng);
  InstanceStats st = w.instance.stats();
  EXPECT_GT(st.sigma_max, 1u);
  // Total memberships equal total hop traversals.
  std::size_t hops = 0;
  for (auto len : w.route_len) hops += len;
  std::size_t memberships = 0;
  for (ElementId u = 0; u < w.instance.num_elements(); ++u)
    memberships += w.instance.load(u);
  EXPECT_EQ(memberships, hops);
}

TEST(MultiHop, WeightPerHop) {
  Rng rng(21);
  MultiHopParams params;
  params.weight_per_hop = 0.5;
  params.min_route = 2;
  params.max_route = 4;
  MultiHopWorkload w = make_multihop_workload(params, rng);
  for (std::size_t p = 0; p < w.instance.num_sets(); ++p)
    EXPECT_DOUBLE_EQ(w.instance.weight(static_cast<SetId>(p)),
                     1.0 + 0.5 * static_cast<double>(w.route_len[p]));
}

}  // namespace
}  // namespace osp
