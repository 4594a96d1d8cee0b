// Tests for the sustained multi-link serving runtime (net/serve.hpp):
// the LatencyHistogram percentile estimator against a sorted-vector
// nearest-rank oracle, multi-worker runs against the serial reference
// (stats + trace identity — the equivalence oracle of the determinism
// contract) on video workloads and on random schedules with gaps, empty
// slots, identity streams and both dead-frame modes, the links=1
// degenerate case against the single-link buffered router, the
// work-conservation trace invariant, starvation counters, and the
// window-ledger conservation laws.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

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
// match the reference's.
void expect_matches_reference(const FrameSchedule& schedule,
                              const std::vector<std::size_t>& stream_of,
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
  for (std::size_t f = 0; f < num_frames; ++f) {
    Frame frame;
    frame.weight = 0.5 + static_cast<double>(rng.below(4));
    for (std::size_t slot = 0; slot < schedule.horizon; ++slot)
      if (!quiet[slot] && rng.chance(0.3)) frame.packet_slots.push_back(slot);
    if (frame.packet_slots.empty())
      frame.packet_slots.push_back(rng.below(schedule.horizon));
    schedule.frames.push_back(frame);
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
    std::vector<std::size_t> stream_of;
    if (!identity_streams) {
      const std::size_t num_streams = 1 + wl_rng.below(schedule.frames.size());
      for (std::size_t f = 0; f < schedule.frames.size(); ++f)
        stream_of.push_back(wl_rng.below(num_streams));
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

TEST(ServeSustained, SingleLinkMatchesBufferedRouter) {
  Rng master(202);
  for (std::size_t trial = 0; trial < 6; ++trial) {
    Rng trial_rng = master.split(trial);
    Rng wl_rng = trial_rng.split(0);
    const Rng rk_rng = trial_rng.split(1);
    const VideoWorkload vw = small_workload(wl_rng, 4, 8);

    BufferedRouterParams rp;
    rp.service_rate = static_cast<Capacity>(1 + trial % 3);
    rp.buffer_size = 4 * trial;
    rp.drop_dead_frames = true;

    RandPrRanker ranker{rk_rng};
    RouterTrace router_trace;
    const RouterStats router = simulate_buffered_router(
        vw.schedule, ranker, rp, nullptr, &router_trace);

    ServeSpec spec;
    spec.links = 1;
    spec.service_rate = rp.service_rate;
    spec.buffer = rp.buffer_size;
    ranker.reseed(rk_rng);
    ServeTrace trace;
    const SustainedStats st =
        serve_sustained(vw.schedule, vw.stream_of, ranker, spec, &trace);

    // With one link the runtime degenerates to the buffered router:
    // counters and the serve decisions must agree packet for packet.
    EXPECT_EQ(st.router.packets_arrived, router.packets_arrived);
    EXPECT_EQ(st.router.packets_served, router.packets_served);
    EXPECT_EQ(st.router.packets_dropped, router.packets_dropped);
    EXPECT_EQ(st.router.frames_total, router.frames_total);
    EXPECT_EQ(st.router.frames_delivered, router.frames_delivered);
    EXPECT_DOUBLE_EQ(st.router.value_total, router.value_total);
    EXPECT_DOUBLE_EQ(st.router.value_delivered, router.value_delivered);

    ASSERT_EQ(trace.served.size(), router_trace.served.size());
    for (std::size_t i = 0; i < trace.served.size(); ++i) {
      EXPECT_EQ(trace.served[i].slot, router_trace.served[i].slot);
      EXPECT_EQ(trace.served[i].frame, router_trace.served[i].frame);
      EXPECT_EQ(trace.served[i].seq, router_trace.served[i].seq);
      EXPECT_EQ(trace.served[i].link, 0u);
    }
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
  std::vector<std::size_t> stream_of;
  for (std::size_t t = 0; t < 4; ++t) {
    Frame heavy;
    heavy.weight = 4.0;
    heavy.packet_slots = {2 * t, 2 * t + 1};
    schedule.frames.push_back(heavy);
    stream_of.push_back(0);
    Frame light;
    light.weight = 1.0;
    light.packet_slots = {2 * t, 2 * t + 1};
    schedule.frames.push_back(light);
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
