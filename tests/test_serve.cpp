// Tests for the sustained multi-link serving runtime (net/serve.hpp):
// the LatencyHistogram percentile estimator against a sorted-vector
// nearest-rank oracle, multi-worker runs against the serial reference
// (stats + trace identity — the equivalence oracle of the determinism
// contract) on video workloads and on random schedules with gaps, empty
// slots, identity streams and both dead-frame modes, the buffered router
// (the runtime at one link) on hand-built and gridded cases through the
// same oracle, the work-conservation trace invariant, starvation
// counters, and the window-ledger conservation laws.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "core/priority.hpp"
#include "gen/traffic.hpp"
#include "gen/video.hpp"
#include "net/router_sim.hpp"
#include "net/serve.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

// -------------------------------------------------------------------
// LatencyHistogram

/// Nearest-rank percentile over an explicit sample list — the textbook
/// definition the histogram must reproduce.
std::uint64_t naive_percentile(std::vector<std::uint64_t> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double clamped = std::min(100.0, std::max(0.0, p));
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(samples.size())));
  if (rank == 0) rank = 1;
  return samples[rank - 1];
}

TEST(LatencyHistogram, MatchesSortedNearestRank) {
  Rng rng(7);
  for (std::size_t trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.below(200);
    LatencyHistogram h;
    std::vector<std::uint64_t> samples;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t latency = rng.below(40);
      samples.push_back(latency);
      h.add(latency);
    }
    EXPECT_EQ(h.count(), samples.size());
    for (double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0})
      EXPECT_EQ(h.percentile(p), naive_percentile(samples, p))
          << "trial " << trial << " p=" << p << " n=" << n;
  }
}

TEST(LatencyHistogram, EmptyAndClampedEdges) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(50), 0u);  // no samples -> 0 by contract
  h.add(5);
  EXPECT_EQ(h.percentile(-10), 5u);   // p clamps to [0, 100]
  EXPECT_EQ(h.percentile(1000), 5u);
  EXPECT_EQ(h.max_latency(), 5u);
}

TEST(LatencyHistogram, MergeEqualsCombinedStream) {
  Rng rng(11);
  LatencyHistogram a, b, combined;
  for (std::size_t i = 0; i < 300; ++i) {
    const std::uint64_t latency = rng.below(25);
    combined.add(latency);
    (i % 3 == 0 ? a : b).add(latency);
  }
  a.merge(b);
  EXPECT_EQ(a, combined);
  EXPECT_EQ(a.count(), combined.count());
  for (double p : {10.0, 50.0, 95.0, 99.0})
    EXPECT_EQ(a.percentile(p), combined.percentile(p));
  b.add(1);  // b diverged; inequality must notice
  EXPECT_NE(b, combined);
}

// -------------------------------------------------------------------
// Multi-worker equivalence against the serial reference

VideoWorkload small_workload(Rng& rng, std::size_t streams,
                             std::size_t frames) {
  VideoParams vp;
  vp.num_streams = streams;
  vp.frames_per_stream = frames;
  return make_video_workload(vp, rng);
}

// Runs the reference once and the runtime at workers 1, 2 and 4, re-arming
// the ranker from `rk_rng` before each run; stats and the whole trace must
// match the reference's.  Returns the reference's stats.
SustainedStats expect_matches_reference(
    const FrameSchedule& schedule, const std::vector<std::uint32_t>& stream_of,
    FrameRanker& ranker, Rng rk_rng, ServeSpec spec,
    const std::string& label) {
  ranker.reseed(rk_rng);
  ServeTrace ref_trace;
  const SustainedStats ref = serve_sustained_reference(
      schedule, stream_of, ranker, spec, &ref_trace);
  for (std::size_t workers : {1u, 2u, 4u}) {
    spec.workers = workers;
    ranker.reseed(rk_rng);
    ServeTrace trace;
    const SustainedStats st =
        serve_sustained(schedule, stream_of, ranker, spec, &trace);
    EXPECT_TRUE(st == ref) << label << " ranker " << ranker.name()
                           << " workers " << workers;
    EXPECT_EQ(trace.served.size(), ref_trace.served.size()) << label;
    EXPECT_TRUE(std::equal(trace.served.begin(), trace.served.end(),
                           ref_trace.served.begin(), ref_trace.served.end()))
        << "trace diverged: " << label << " workers " << workers;
    EXPECT_EQ(trace.slot_backlog, ref_trace.slot_backlog) << label;
    EXPECT_EQ(trace.slot_served, ref_trace.slot_served) << label;
  }
  return ref;
}

TEST(ServeSustained, WorkerCountsMatchSerialReference) {
  Rng master(101);
  for (std::size_t trial = 0; trial < 10; ++trial) {
    Rng trial_rng = master.split(trial);
    Rng wl_rng = trial_rng.split(0);
    const Rng rk_rng = trial_rng.split(1);
    const VideoWorkload vw =
        small_workload(wl_rng, 2 + trial_rng.split(2).below(6),
                       4 + trial_rng.split(3).below(8));

    ServeSpec spec;
    spec.links = 1 + trial_rng.split(4).below(4);
    spec.service_rate =
        static_cast<Capacity>(1 + trial_rng.split(5).below(4));
    spec.buffer = trial_rng.split(6).below(24);
    spec.work_conserving = trial % 2 == 0;
    spec.window = 8 + trial_rng.split(7).below(24);

    RandPrRanker rand_pr{rk_rng};
    FifoRanker fifo;
    WeightRanker by_weight;
    FrameRanker* rankers[] = {&rand_pr, &fifo, &by_weight};
    expect_matches_reference(vw.schedule, vw.stream_of, *rankers[trial % 3],
                             rk_rng, spec, "trial " + std::to_string(trial));
  }
}

// A schedule the video generator never makes: frames with gaps between
// their packets, slots no packet arrives in, and tied weights.
FrameSchedule random_schedule(Rng& rng) {
  FrameSchedule schedule;
  schedule.horizon = 1 + rng.below(40);
  std::vector<bool> quiet(schedule.horizon);
  for (std::size_t slot = 0; slot < schedule.horizon; ++slot)
    quiet[slot] = rng.chance(0.3);
  const std::size_t num_frames = 1 + rng.below(30);
  std::vector<std::size_t> slots;
  for (std::size_t f = 0; f < num_frames; ++f) {
    const Weight weight = 0.5 + static_cast<double>(rng.below(4));
    slots.clear();
    for (std::size_t slot = 0; slot < schedule.horizon; ++slot)
      if (!quiet[slot] && rng.chance(0.3)) slots.push_back(slot);
    if (slots.empty()) slots.push_back(rng.below(schedule.horizon));
    schedule.add_frame(weight, slots);
  }
  return schedule;
}

// The modes the video fuzz above never reaches: every combination of
// dead-frame mode, stream map (identity or random) and ranker, on random
// schedules with gaps and empty slots.
TEST(ServeSustained, RandomSchedulesMatchSerialReference) {
  Rng master(707);
  for (std::size_t trial = 0; trial < 48; ++trial) {
    Rng trial_rng = master.split(trial);
    Rng wl_rng = trial_rng.split(0);
    const Rng rk_rng = trial_rng.split(1);
    const FrameSchedule schedule = random_schedule(wl_rng);

    const bool identity_streams = (trial / 2) % 2 == 0;
    std::vector<std::uint32_t> stream_of;
    if (!identity_streams) {
      const std::size_t num_streams = 1 + wl_rng.below(schedule.frames.size());
      for (std::size_t f = 0; f < schedule.frames.size(); ++f)
        stream_of.push_back(
            static_cast<std::uint32_t>(wl_rng.below(num_streams)));
    }

    ServeSpec spec;
    spec.links = 1 + wl_rng.below(4);
    spec.service_rate = static_cast<Capacity>(1 + wl_rng.below(3));
    spec.buffer = wl_rng.below(12);
    spec.work_conserving = wl_rng.chance(0.5);
    spec.drop_dead_frames = trial % 2 == 0;
    spec.window = 1 + wl_rng.below(16);

    RandPrRanker rand_pr{rk_rng};
    FifoRanker fifo;
    WeightRanker by_weight;
    RandomRanker random_drop{rk_rng};
    FrameRanker* rankers[] = {&rand_pr, &fifo, &by_weight, &random_drop};
    expect_matches_reference(
        schedule, stream_of, *rankers[(trial / 4) % 4], rk_rng, spec,
        "trial " + std::to_string(trial) +
            (spec.drop_dead_frames ? " drop-dead" : " keep-dead") +
            (identity_streams ? " identity-streams" : " mapped-streams"));
  }
}

// Deep queues, which the fuzzes above never build (their buffers stay
// below 24).  Four streams per link each start a 1-3 packet frame every
// 1-3 slots, about four arrivals per link per slot against a service rate
// of 2, so every link's backlog climbs to ~1600 packets and its queue
// stacks many sorted runs.  A buffer as large as the whole workload never
// trims; a 600-packet buffer trims from a deep queue every slot.
TEST(ServeSustained, DeepQueuesMatchSerialReference) {
  Rng rng(2024);
  FrameSchedule schedule;
  schedule.horizon = 800;
  std::vector<std::uint32_t> stream_of;
  std::vector<std::size_t> slots;
  for (std::uint32_t stream = 0; stream < 16; ++stream) {
    for (std::size_t start = rng.below(3); start < schedule.horizon;
         start += 1 + rng.below(3)) {
      slots.clear();
      for (std::size_t i = 1 + rng.below(3), slot = start;
           i > 0 && slot < schedule.horizon; --i, ++slot)
        slots.push_back(slot);
      schedule.add_frame(0.5 + static_cast<double>(rng.below(4)), slots);
      stream_of.push_back(stream);
    }
  }

  RandPrRanker rand_pr{Rng(5)};
  WeightRanker by_weight;
  FifoRanker fifo;
  struct Case {
    FrameRanker* ranker;
    std::size_t buffer;
    bool drop_dead;
  };
  const Case cases[] = {{&rand_pr, schedule.total_packets(), true},
                        {&fifo, schedule.total_packets(), false},
                        {&by_weight, 600, true},
                        {&rand_pr, 600, false}};
  for (const Case& c : cases) {
    ServeSpec spec;
    spec.links = 4;
    spec.service_rate = 2;
    spec.buffer = c.buffer;
    spec.drop_dead_frames = c.drop_dead;
    spec.window = 64;
    const SustainedStats st = expect_matches_reference(
        schedule, stream_of, *c.ranker, Rng(6), spec,
        "deep buffer " + std::to_string(c.buffer) +
            (c.drop_dead ? " drop-dead" : " keep-dead"));
    if (c.buffer == schedule.total_packets()) {
      EXPECT_EQ(st.evictions, 0u);
      EXPECT_GT(st.leftover, 6000u);  // the backlog the horizon cut off
    } else {
      EXPECT_GT(st.evictions, 1500u);
    }
  }
}

// Wide batches, which the cases above never bring (the deep one brings
// 4-6 packets per link-slot).  256 streams per link each keep a 1-4 packet
// frame going in nearly every slot, so every link-slot brings 100-256
// arrivals, the batch size of a loaded link (serve-overload's is about
// 142), and each queue batch runs the radix passes.  Frame weights come in
// groups that share one quantized_key_rank image but differ in their low
// mantissa bits, so by-weight ranks tie in the image and only the batch
// sort's exact fix-up orders them.
TEST(ServeSustained, WideBatchesMatchSerialReference) {
  Rng rng(4242);
  FrameSchedule schedule;
  schedule.horizon = 40;
  std::vector<std::uint32_t> stream_of;
  std::vector<std::size_t> slots;
  for (std::uint32_t stream = 0; stream < 512; ++stream) {
    for (std::size_t start = rng.below(2); start < schedule.horizon;) {
      slots.clear();
      for (std::size_t i = 1 + rng.below(4);
           i > 0 && start < schedule.horizon; --i)
        slots.push_back(start++);
      schedule.add_frame(0.5 + static_cast<double>(rng.below(4)) +
                             0x1p-40 * static_cast<double>(rng.below(4)),
                         slots);
      stream_of.push_back(stream);
      start += rng.chance(0.1) ? 1 : 0;  // an occasional idle slot
    }
  }
  ASSERT_EQ(quantized_key_rank(0.5), quantized_key_rank(0.5 + 0x1p-40 * 3));
  const CsrArray<SetId> slot_frames = schedule.slot_frames();
  for (std::size_t slot = 0; slot < schedule.horizon; ++slot) {
    std::size_t per_link[2] = {0, 0};
    for (SetId f : slot_frames.row(slot)) ++per_link[stream_of[f] % 2];
    ASSERT_GE(std::min(per_link[0], per_link[1]), 100u) << "slot " << slot;
  }

  RandPrRanker rand_pr{Rng(5)};
  WeightRanker by_weight;
  FifoRanker drop_tail;
  RandomRanker random_drop{Rng(5)};
  FrameRanker* rankers[] = {&rand_pr, &by_weight, &drop_tail, &random_drop};
  for (FrameRanker* ranker : rankers) {
    for (std::size_t buffer : {std::size_t{64}, schedule.total_packets()}) {
      for (bool drop_dead : {true, false}) {
        ServeSpec spec;
        spec.links = 2;
        spec.service_rate = 96;
        spec.buffer = buffer;
        spec.drop_dead_frames = drop_dead;
        spec.window = 16;
        const SustainedStats st = expect_matches_reference(
            schedule, stream_of, *ranker, Rng(6), spec,
            "wide buffer " + std::to_string(buffer) +
                (drop_dead ? " drop-dead" : " keep-dead"));
        if (buffer == 64)
          EXPECT_GT(st.evictions, 0u);
        else
          EXPECT_GT(st.leftover, 0u);
      }
    }
  }
}

// -------------------------------------------------------------------
// One link: the buffered router of the paper's open problem 2

FrameSchedule sample_schedule(std::uint64_t seed, std::size_t frames,
                              std::size_t k) {
  Rng rng(seed);
  PoissonBursts bursts(2.5);
  return bursty_schedule(bursts, frames, k, rng);
}

// The runtime and the sorted-vector reference must be
// decision-identical at one link: same serviced packet (frame AND arrival
// seq) in every service step of every slot, and same stats — across
// rankers, buffer sizes (zero included), service rates, and both
// dead-frame modes — and every packet must be accounted for.  Unit frame
// weights make rank ties ubiquitous, which is exactly where ordering bugs
// would hide.
TEST(SingleLink, RuntimeMatchesSortReferenceSlotForSlot) {
  RandPrRanker randpr{Rng(0)};
  WeightRanker weight;
  FifoRanker fifo;
  RandomRanker random{Rng(0)};
  FrameRanker* rankers[] = {&randpr, &weight, &fifo, &random};

  int compared = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const FrameSchedule sched = sample_schedule(900 + seed, 50, 3);
    for (std::size_t buf : {0, 1, 3, 8, 64}) {
      for (Capacity rate : {1, 2, 5}) {
        for (bool drop_dead : {true, false}) {
          for (FrameRanker* ranker : rankers) {
            const SustainedStats st = expect_matches_reference(
                sched, {}, *ranker, Rng(seed),
                ServeSpec{.service_rate = rate,
                          .buffer = buf,
                          .drop_dead_frames = drop_dead},
                "seed " + std::to_string(seed) + " buffer " +
                    std::to_string(buf) + " rate " + std::to_string(rate) +
                    (drop_dead ? " drop-dead" : " keep-dead"));
            EXPECT_EQ(st.router.packets_served + st.router.packets_dropped,
                      st.router.packets_arrived);
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 6 * 5 * 3 * 2 * 4);
}

// Regression for the dead-frame service waste of the pre-queue.hpp
// simulator.  Frames (weight, packet slots), service rate 1, buffer 3,
// WeightRanker, drop_dead_frames on:
//   H (10, {0,1,2,3})  — hogs the link every slot it appears
//   C ( 1, {1})   D (1, {2})   E (1, {3})   B (1, {0,3})
// At slot 3 the queue holds [B#0, C, D, E, B#1] (all rank 1, FIFO order)
// and must shrink to 3.  The old simulator kept the top 3 — B#0, C, D —
// and dropped E and B#1, killing BOTH E and B while B's doomed first
// packet sat in the buffer (to be "served" at slot 6, wasting the link):
// delivered value 12/14.  The fixed router evicts B#0 together with B#1
// (a dead frame can never be delivered), which saves E: 13/14.
TEST(SingleLink, EvictingDeadFramePacketsSavesLiveFrames) {
  FrameSchedule sched;
  sched.add_frame(10.0, {0, 1, 2, 3});  // H
  sched.add_frame(1.0, {1});            // C
  sched.add_frame(1.0, {2});            // D
  sched.add_frame(1.0, {3});            // E
  sched.add_frame(1.0, {0, 3});         // B
  sched.horizon = 7;

  WeightRanker ranker;
  const SustainedStats st = expect_matches_reference(
      sched, {}, ranker, Rng(0), ServeSpec{.service_rate = 1, .buffer = 3},
      "dead-frame eviction");
  EXPECT_EQ(st.router.packets_arrived, 9u);
  EXPECT_EQ(st.router.packets_served, 7u);
  EXPECT_EQ(st.router.packets_dropped, 2u);
  EXPECT_EQ(st.router.frames_delivered, 4u);  // H, C, D and the rescued E
  EXPECT_DOUBLE_EQ(st.router.value_delivered, 13.0);
  EXPECT_DOUBLE_EQ(st.router.goodput(), 13.0 / 14.0);  // old: 12/14
}

TEST(SingleLink, RefusesArrivalsOfDeadFrames) {
  // Frame A loses its first packet to a zero buffer at slot 0 (B outranks
  // it); its second packet must be refused on arrival, leaving the link
  // free for C.
  FrameSchedule sched;
  sched.add_frame(5.0, {0});     // B: wins slot 0
  sched.add_frame(1.0, {0, 1});  // A: dies at slot 0
  sched.add_frame(0.5, {1});     // C: must be served at slot 1
  sched.horizon = 2;
  WeightRanker ranker;
  const SustainedStats st = expect_matches_reference(
      sched, {}, ranker, Rng(0), ServeSpec{.service_rate = 1, .buffer = 0},
      "refused arrival");
  EXPECT_EQ(st.router.packets_served, 2u);
  EXPECT_EQ(st.refused_dead, 1u);
  EXPECT_EQ(st.router.frames_delivered, 2u);  // B and C
  EXPECT_DOUBLE_EQ(st.router.value_delivered, 5.5);
}

TEST(SingleLink, AmpleServiceRateDeliversEverythingEvenUnbuffered) {
  const FrameSchedule sched = sample_schedule(11, 40, 3);
  const auto ample = static_cast<Capacity>(sched.max_burst());
  FifoRanker fifo;
  for (std::size_t buf : {0, 5}) {
    const SustainedStats st = serve_sustained(
        sched, {}, fifo, ServeSpec{.service_rate = ample, .buffer = buf});
    EXPECT_EQ(st.router.packets_dropped, 0u);
    EXPECT_EQ(st.router.packets_served, st.router.packets_arrived);
    EXPECT_EQ(st.router.frames_delivered, st.router.frames_total);
  }
}

TEST(SingleLink, ServiceRateAboveQueueSizeIsHarmless) {
  // service_rate far beyond any queue population: the serve loop must
  // stop at an empty queue, not underflow or serve phantom packets.
  FrameSchedule sched;
  sched.add_frame(1.0, {0});
  sched.add_frame(2.0, {2});
  sched.horizon = 4;
  FifoRanker fifo;
  const SustainedStats st = expect_matches_reference(
      sched, {}, fifo, Rng(0), ServeSpec{.service_rate = 100, .buffer = 10},
      "rate above queue size");
  EXPECT_EQ(st.router.packets_served, 2u);
  EXPECT_EQ(st.router.packets_dropped, 0u);
  EXPECT_EQ(st.router.frames_delivered, 2u);
}

TEST(SingleLink, HorizonEndDropsKillDelivery) {
  // Two packets arrive in the last slot; one is served, the straggler is
  // dropped at the horizon and its frame with it.
  FrameSchedule sched;
  sched.add_frame(1.0, {0, 1});
  sched.add_frame(3.0, {1});
  sched.horizon = 2;
  WeightRanker ranker;
  const SustainedStats st = expect_matches_reference(
      sched, {}, ranker, Rng(0), ServeSpec{.service_rate = 1, .buffer = 4},
      "horizon-end drop");
  // Slot 0: frame 0's first packet served.  Slot 1: frame 1 outranks
  // frame 0's second packet; the horizon ends with it still queued.
  EXPECT_EQ(st.router.packets_served, 2u);
  EXPECT_EQ(st.router.packets_dropped, 1u);
  EXPECT_EQ(st.leftover, 1u);
  EXPECT_EQ(st.router.frames_delivered, 1u);
  EXPECT_DOUBLE_EQ(st.router.value_delivered, 3.0);
}

TEST(SingleLink, UnfinishedQueueCountsAsDropped) {
  FrameSchedule sched;
  sched.add_frame(1.0, {0});
  sched.add_frame(1.0, {0});
  sched.add_frame(1.0, {0});
  sched.horizon = 1;  // only one service opportunity
  FifoRanker fifo;
  const SustainedStats st = expect_matches_reference(
      sched, {}, fifo, Rng(0),
      ServeSpec{.service_rate = 1, .buffer = 10, .drop_dead_frames = false},
      "unfinished queue");
  EXPECT_EQ(st.router.packets_served, 1u);
  EXPECT_EQ(st.router.packets_dropped, 2u);
  EXPECT_EQ(st.leftover, 2u);
  EXPECT_EQ(st.router.frames_delivered, 1u);
}

TEST(SingleLink, ConservationHoldsAcrossParamGrid) {
  Rng master(77);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const FrameSchedule sched = sample_schedule(1300 + seed, 70, 4);
    RandPrRanker ranker{Rng(0)};
    for (std::size_t buf : {0, 2, 16, 1000}) {
      for (Capacity rate : {1, 3, 7}) {
        for (bool drop_dead : {true, false}) {
          const SustainedStats st = expect_matches_reference(
              sched, {}, ranker, master.split(seed),
              ServeSpec{.service_rate = rate,
                        .buffer = buf,
                        .drop_dead_frames = drop_dead},
              "conservation seed " + std::to_string(seed));
          ASSERT_EQ(st.router.packets_arrived, sched.total_packets());
          ASSERT_EQ(st.router.packets_served + st.router.packets_dropped,
                    st.router.packets_arrived);
          ASSERT_LE(st.router.value_delivered, st.router.value_total + 1e-9);
        }
      }
    }
  }
}

TEST(SingleLink, BufferImprovesFifoGoodput) {
  // Statistically, a buffer can only help drop-tail.
  double no_buf = 0, with_buf = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const FrameSchedule sched = sample_schedule(500 + t, 60, 3);
    FifoRanker fifo;
    for (std::size_t buf : {0, 8})
      (buf == 0 ? no_buf : with_buf) +=
          serve_sustained(sched, {}, fifo,
                          ServeSpec{.service_rate = 1,
                                    .buffer = buf,
                                    .drop_dead_frames = false})
              .router.goodput();
  }
  EXPECT_GE(with_buf, no_buf);
}

TEST(SingleLink, DropDeadFramesHelps) {
  Rng master(6);
  double keep_dead = 0, drop_dead = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const FrameSchedule sched = sample_schedule(700 + t, 80, 4);
    for (bool drop : {false, true}) {
      RandPrRanker ranker{master.split(t)};
      (drop ? drop_dead : keep_dead) +=
          serve_sustained(sched, {}, ranker,
                          ServeSpec{.service_rate = 1,
                                    .buffer = 4,
                                    .drop_dead_frames = drop})
              .router.goodput();
    }
  }
  EXPECT_GE(drop_dead, keep_dead);
}

// The ranker grid passes the workload's stream map to its one-link runs.
// At one link that map may change the starvation counters and nothing
// else: not the router counters, not the drop taxonomy, not the trace.
TEST(SingleLink, StreamMapChangesOnlyStarvation) {
  Rng master(808);
  for (std::size_t trial = 0; trial < 6; ++trial) {
    Rng trial_rng = master.split(trial);
    Rng wl_rng = trial_rng.split(0);
    const Rng rk_rng = trial_rng.split(1);
    const VideoWorkload vw = small_workload(wl_rng, 4, 8);
    const ServeSpec spec{.service_rate = static_cast<Capacity>(1 + trial % 3),
                         .buffer = 4 * trial,
                         .drop_dead_frames = trial % 2 == 0};

    RandPrRanker ranker{rk_rng};
    ServeTrace mapped_trace;
    SustainedStats mapped = serve_sustained(vw.schedule, vw.stream_of,
                                            ranker, spec, &mapped_trace);
    ranker.reseed(rk_rng);
    ServeTrace identity_trace;
    SustainedStats identity =
        serve_sustained(vw.schedule, {}, ranker, spec, &identity_trace);

    EXPECT_EQ(mapped.starved_slots.size(), 4u);
    EXPECT_EQ(identity.starved_slots.size(), vw.schedule.frames.size());
    mapped.starved_slots.clear();
    identity.starved_slots.clear();
    EXPECT_TRUE(mapped == identity) << "trial " << trial;
    EXPECT_TRUE(std::equal(mapped_trace.served.begin(),
                           mapped_trace.served.end(),
                           identity_trace.served.begin(),
                           identity_trace.served.end()))
        << "trial " << trial;
    EXPECT_EQ(mapped_trace.slot_backlog, identity_trace.slot_backlog);
    EXPECT_EQ(mapped_trace.slot_served, identity_trace.slot_served);
  }
}

// -------------------------------------------------------------------
// Invariants

TEST(ServeSustained, WorkConservationInvariantHolds) {
  Rng rng(303);
  Rng wl_rng = rng.split(0);
  const VideoWorkload vw = small_workload(wl_rng, 6, 10);
  ServeSpec spec;
  spec.links = 3;
  spec.service_rate = 2;
  spec.buffer = 16;
  spec.work_conserving = true;
  FifoRanker ranker;
  ServeTrace trace;
  serve_sustained(vw.schedule, vw.stream_of, ranker, spec, &trace);

  ASSERT_EQ(trace.slot_backlog.size(), vw.schedule.horizon);
  ASSERT_EQ(trace.slot_served.size(), vw.schedule.horizon);
  const std::size_t line_rate = spec.links * spec.service_rate;
  for (std::size_t t = 0; t < vw.schedule.horizon; ++t)
    EXPECT_EQ(trace.slot_served[t],
              std::min(line_rate, trace.slot_backlog[t]))
        << "slot " << t;

  // Without lending, a slot can serve less than the line rate even with
  // backlog standing — but never more, and never more than the backlog.
  spec.work_conserving = false;
  ServeTrace plain;
  serve_sustained(vw.schedule, vw.stream_of, ranker, spec, &plain);
  for (std::size_t t = 0; t < vw.schedule.horizon; ++t) {
    EXPECT_LE(plain.slot_served[t], line_rate);
    EXPECT_LE(plain.slot_served[t], plain.slot_backlog[t]);
  }
}

TEST(ServeSustained, NoStarvationWhenCapacityCoversEveryBurst) {
  Rng rng(404);
  Rng wl_rng = rng.split(0);
  const VideoWorkload vw = small_workload(wl_rng, 4, 6);
  ServeSpec spec;
  spec.links = 2;
  // Per-link rate at least the whole workload's worst burst: every packet
  // is served the slot it arrives, so no stream ever waits.
  spec.service_rate = static_cast<Capacity>(vw.schedule.max_burst());
  spec.buffer = vw.schedule.total_packets();
  FifoRanker ranker;
  const SustainedStats st =
      serve_sustained(vw.schedule, vw.stream_of, ranker, spec);
  EXPECT_EQ(st.streams_starved(), 0u);
  EXPECT_EQ(st.starved_slots_max(), 0u);
  EXPECT_EQ(st.router.packets_served, st.router.packets_arrived);
  EXPECT_DOUBLE_EQ(st.router.goodput(), 1.0);
}

TEST(ServeSustained, WeakStreamStarvesUnderByWeight) {
  // Two streams on one link, one heavy frame and one light frame per
  // slot pair, rate 1: by-weight always serves the heavy stream first,
  // so the light stream sits with live backlog — the starvation counter
  // must see it.
  FrameSchedule schedule;
  schedule.horizon = 8;
  std::vector<std::uint32_t> stream_of;
  for (std::size_t t = 0; t < 4; ++t) {
    schedule.add_frame(4.0, {2 * t, 2 * t + 1});  // heavy
    stream_of.push_back(0);
    schedule.add_frame(1.0, {2 * t, 2 * t + 1});  // light
    stream_of.push_back(1);
  }
  ServeSpec spec;
  spec.links = 1;
  spec.service_rate = 1;
  spec.buffer = 64;  // roomy: starvation, not eviction, is the story
  WeightRanker ranker;
  const SustainedStats st =
      serve_sustained(schedule, stream_of, ranker, spec);
  ASSERT_EQ(st.starved_slots.size(), 2u);
  EXPECT_GT(st.starved_slots[1], st.starved_slots[0]);
  EXPECT_GE(st.streams_starved(), 1u);
  EXPECT_EQ(st.starved_slots_max(), st.starved_slots[1]);
}

TEST(ServeSustained, WindowLedgerConservesValue) {
  Rng rng(505);
  Rng wl_rng = rng.split(0);
  const VideoWorkload vw = small_workload(wl_rng, 5, 9);
  for (std::size_t window : {4u, 16u, 1024u}) {
    ServeSpec spec;
    spec.links = 2;
    spec.service_rate = 2;
    spec.buffer = 8;
    spec.window = window;
    FifoRanker ranker;
    const SustainedStats st =
        serve_sustained(vw.schedule, vw.stream_of, ranker, spec);
    const std::size_t windows =
        (vw.schedule.horizon + window - 1) / window;
    ASSERT_EQ(st.window_offered.size(), windows);
    ASSERT_EQ(st.window_delivered.size(), windows);
    double offered = 0, delivered = 0;
    for (double v : st.window_offered) offered += v;
    for (double v : st.window_delivered) delivered += v;
    EXPECT_NEAR(offered, st.router.value_total, 1e-9);
    EXPECT_NEAR(delivered, st.router.value_delivered, 1e-9);
    EXPECT_GE(st.window_goodput_mean(), st.window_goodput_min());
    EXPECT_LE(st.window_goodput_min(), st.router.goodput() + 1e-12);
  }
}

// Drop taxonomy: every dropped packet is exactly one of refused / direct
// eviction / cascade write-off / leftover.
TEST(ServeSustained, DropTaxonomyPartitionsDrops) {
  Rng rng(606);
  for (std::size_t trial = 0; trial < 5; ++trial) {
    Rng trial_rng = rng.split(trial);
    Rng wl_rng = trial_rng.split(0);
    const VideoWorkload vw = small_workload(wl_rng, 4 + trial, 8);
    ServeSpec spec;
    spec.links = 1 + trial % 3;
    spec.service_rate = 1;
    spec.buffer = 2 * trial;
    RandPrRanker ranker{trial_rng.split(1)};
    const SustainedStats st =
        serve_sustained(vw.schedule, vw.stream_of, ranker, spec);
    EXPECT_EQ(st.router.packets_dropped,
              st.refused_dead + st.evictions + st.cascade_drops +
                  st.leftover);
    EXPECT_EQ(st.router.packets_arrived,
              st.router.packets_served + st.router.packets_dropped);
    EXPECT_EQ(st.drop_latency.count(), st.evictions);
    EXPECT_EQ(st.serve_latency.count(), st.router.packets_served);
  }
}

}  // namespace
}  // namespace osp
