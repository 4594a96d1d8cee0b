#include "net/router_sim.hpp"

#include <algorithm>
#include <cassert>

#include "core/priority.hpp"
#include "util/require.hpp"

namespace osp {

void frame_metas(const FrameSchedule& schedule, std::vector<SetMeta>& metas) {
  metas.clear();
  metas.reserve(schedule.frames.size());
  for (const Frame& f : schedule.frames)
    metas.push_back(SetMeta{f.weight, f.packet_slots.size()});
}

std::vector<SetMeta> frame_metas(const FrameSchedule& schedule) {
  std::vector<SetMeta> metas;
  frame_metas(schedule, metas);
  return metas;
}

void build_slot_frames(const FrameSchedule& schedule,
                       CsrArray<SetId>& slot_frames,
                       std::vector<std::size_t>& cursor) {
  cursor.assign(schedule.horizon, 0);
  for (const Frame& f : schedule.frames)
    for (std::size_t slot : f.packet_slots) ++cursor[slot];
  slot_frames.assign_sizes(cursor.data(), cursor.size());
  std::fill(cursor.begin(), cursor.end(), 0);
  for (std::size_t fi = 0; fi < schedule.frames.size(); ++fi)
    for (std::size_t slot : schedule.frames[fi].packet_slots)
      slot_frames.mutable_row(slot)[cursor[slot]++] = static_cast<SetId>(fi);
}

RouterStats simulate_router(const FrameSchedule& schedule,
                            OnlineAlgorithm& alg, Capacity service_rate) {
  OSP_REQUIRE(service_rate >= 1);
  schedule.validate();
  alg.start(frame_metas(schedule));

  // Pack the non-empty bursts into one CSR array up front: row e is the
  // e-th non-empty slot, exactly the element numbering of the paper's
  // reduction (to_instance skips empty slots too).  A counting pass sizes
  // the compact rows, a scatter pass fills them in ascending frame id —
  // the order the packets arrive in.
  const std::size_t horizon = schedule.horizon;
  std::vector<std::size_t> sizes(horizon, 0);
  for (const Frame& f : schedule.frames)
    for (std::size_t slot : f.packet_slots) ++sizes[slot];

  std::vector<std::size_t> row_of(horizon, 0);
  std::vector<std::size_t> compact_sizes;
  for (std::size_t slot = 0; slot < horizon; ++slot) {
    if (sizes[slot] == 0) continue;
    row_of[slot] = compact_sizes.size();
    compact_sizes.push_back(sizes[slot]);
  }

  CsrArray<SetId> bursts;
  bursts.assign_sizes(compact_sizes.data(), compact_sizes.size());
  std::vector<std::size_t> fill(compact_sizes.size(), 0);
  for (std::size_t fi = 0; fi < schedule.frames.size(); ++fi)
    for (std::size_t slot : schedule.frames[fi].packet_slots) {
      const std::size_t r = row_of[slot];
      bursts.mutable_row(r)[fill[r]++] = static_cast<SetId>(fi);
    }

  RouterStats stats;
  stats.packets_arrived = bursts.total_values();
  std::vector<std::size_t> served(schedule.frames.size(), 0);

  // Feed the whole run to decide_batch in arrival blocks; each block's
  // packed choices are then validated and tallied per slot under the same
  // rules the per-element path enforced.  Every slot has the same
  // capacity, so one block-sized constant array serves all blocks.
  const std::size_t num_rows = bursts.num_rows();
  const std::vector<Capacity> capacities(
      std::min(num_rows, kDefaultDecideBlock), service_rate);
  BlockScratch scratch;
  BlockChoices choices;
  for (std::size_t base = 0; base < num_rows; base += kDefaultDecideBlock) {
    const std::size_t count = std::min(kDefaultDecideBlock, num_rows - base);
    const ArrivalBlock block{static_cast<ElementId>(base), count,
                             capacities.data(), bursts.values().data(),
                             bursts.offsets().data() + base};
    alg.decide_batch(block, scratch, choices);
    for (std::size_t i = 0; i < count; ++i) {
      const Span<SetId> burst = block.candidate_span(i);
      assert(std::is_sorted(burst.begin(), burst.end()));
      const std::size_t n = choices.num_chosen(i);
      OSP_REQUIRE(n <= service_rate);
      for (std::size_t j = 0; j < n; ++j) {
        SetId f = choices.chosen_of(i)[j];
        OSP_REQUIRE(std::binary_search(burst.begin(), burst.end(), f));
        ++served[f];
        ++stats.packets_served;
      }
      stats.packets_dropped += burst.size() - n;
    }
  }
  tally_frames(schedule, [&](std::size_t fi) { return served[fi]; }, stats);
  return stats;
}

void RandPrRanker::start(const std::vector<SetMeta>& frames) {
  ranks_.resize(frames.size());
  // Weights were validated positive by FrameSchedule::validate(); a
  // non-positive weight reaching sample_rw_key throws rather than being
  // silently clamped.
  for (std::size_t f = 0; f < frames.size(); ++f)
    ranks_[f] = sample_rw_key(frames[f].weight, rng_).key;
}

void WeightRanker::start(const std::vector<SetMeta>& frames) {
  ranks_.resize(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    ranks_[f] = frames[f].weight;
}

void RandomRanker::start(const std::vector<SetMeta>& frames) {
  ranks_.resize(frames.size());
  for (double& r : ranks_) r = rng_.uniform();
}

RouterStats simulate_buffered_router(const FrameSchedule& schedule,
                                     FrameRanker& ranker,
                                     const BufferedRouterParams& params,
                                     BufferedRouterScratch* scratch,
                                     RouterTrace* trace) {
  OSP_REQUIRE(params.service_rate >= 1);
  schedule.validate();
  if (trace != nullptr) trace->served.clear();

  BufferedRouterScratch local;
  BufferedRouterScratch& s = scratch != nullptr ? *scratch : local;
  frame_metas(schedule, s.metas);
  ranker.start(s.metas);
  build_slot_frames(schedule, s.slot_frames, s.cursor);
  s.served.assign(schedule.frames.size(), 0);
  PacketQueue& queue = s.queue;
  queue.reset(schedule.frames.size());

  RouterStats stats;
  std::uint64_t seq = 0;
  for (std::size_t slot = 0; slot < schedule.horizon; ++slot) {
    // Arrivals: the slot's whole burst is one contiguous CSR row.  A
    // packet of a frame already known dead is refused on the spot: it can
    // never contribute value, so it must not consume buffer space or link
    // capacity.
    for (SetId f : s.slot_frames.row(slot)) {
      ++stats.packets_arrived;
      const std::uint64_t arrival = seq++;
      if (params.drop_dead_frames && queue.is_dead(f)) {
        ++stats.packets_dropped;
        continue;
      }
      queue.push(f, ranker.rank(f), arrival);
    }

    // Serve the best live packets; dead packets never consume capacity
    // (the queue discards them lazily during the pop).
    for (Capacity i = 0; i < params.service_rate; ++i) {
      SetId f;
      std::uint64_t packet_seq;
      if (!queue.pop_best(&f, &packet_seq)) break;
      ++s.served[f];
      ++stats.packets_served;
      if (trace != nullptr)
        trace->served.push_back(RouterTrace::Served{slot, f, packet_seq});
    }

    // Trim to the buffer: evict the worst live packet until everything
    // fits.  Every eviction kills its frame; with drop_dead_frames the
    // rest of that frame's packets are written off with it (lazy
    // deletion), often ending the trim early — the buffer keeps only
    // packets that can still pay off.
    while (queue.live_size() > params.buffer_size) {
      SetId f;
      queue.pop_worst(&f);
      ++stats.packets_dropped;
      if (params.drop_dead_frames)
        stats.packets_dropped += queue.kill_frame(f);
    }
  }
  // Packets still queued at the end of the horizon never made it out
  // (lazily deleted ones were already counted when their frame died).
  stats.packets_dropped += queue.live_size();

  tally_frames(schedule, [&](std::size_t fi) { return s.served[fi]; },
               stats);
  return stats;
}

RouterStats simulate_buffered_router_reference(
    const FrameSchedule& schedule, FrameRanker& ranker,
    const BufferedRouterParams& params, RouterTrace* trace) {
  OSP_REQUIRE(params.service_rate >= 1);
  schedule.validate();
  if (trace != nullptr) trace->served.clear();
  ranker.start(frame_metas(schedule));

  CsrArray<SetId> slot_frames;
  std::vector<std::size_t> cursor;
  build_slot_frames(schedule, slot_frames, cursor);

  struct QueuedPacket {
    SetId frame;
    double rank;
    std::uint64_t seq;  // global arrival order, for FIFO tie-breaking
  };

  RouterStats stats;
  std::vector<std::size_t> served(schedule.frames.size(), 0);
  std::vector<bool> dead(schedule.frames.size(), false);
  std::vector<QueuedPacket> queue;  // survivors waiting for the link
  std::uint64_t seq = 0;

  for (std::size_t slot = 0; slot < schedule.horizon; ++slot) {
    for (SetId f : slot_frames.row(slot)) {
      ++stats.packets_arrived;
      const std::uint64_t arrival = seq++;
      if (params.drop_dead_frames && dead[f]) {
        ++stats.packets_dropped;
        continue;
      }
      queue.push_back(QueuedPacket{f, ranker.rank(f), arrival});
    }
    if (queue.empty()) continue;

    // (rank desc, seq asc) — the queue never holds a dead packet in
    // drop_dead_frames mode, so the (live, rank, seq) order of the model
    // reduces to this.
    std::sort(queue.begin(), queue.end(),
              [](const QueuedPacket& a, const QueuedPacket& b) {
                if (a.rank != b.rank) return a.rank > b.rank;
                return a.seq < b.seq;
              });

    // Serve the head of the ordered queue.
    std::size_t to_serve =
        std::min<std::size_t>(params.service_rate, queue.size());
    for (std::size_t i = 0; i < to_serve; ++i) {
      ++served[queue[i].frame];
      ++stats.packets_served;
      if (trace != nullptr)
        trace->served.push_back(
            RouterTrace::Served{slot, queue[i].frame, queue[i].seq});
    }
    queue.erase(queue.begin(),
                queue.begin() + static_cast<std::ptrdiff_t>(to_serve));

    // Trim to the buffer from the tail; in drop_dead_frames mode an
    // overflow drop kills its frame and evicts the frame's other queued
    // packets with it.
    while (queue.size() > params.buffer_size) {
      const QueuedPacket worst = queue.back();
      queue.pop_back();
      ++stats.packets_dropped;
      if (!params.drop_dead_frames) continue;
      dead[worst.frame] = true;
      auto doomed = std::remove_if(queue.begin(), queue.end(),
                                   [&](const QueuedPacket& p) {
                                     return p.frame == worst.frame;
                                   });
      stats.packets_dropped +=
          static_cast<std::size_t>(queue.end() - doomed);
      queue.erase(doomed, queue.end());
    }
  }
  // Packets still queued at the end of the horizon never made it out.
  stats.packets_dropped += queue.size();
  queue.clear();

  tally_frames(schedule, [&](std::size_t fi) { return served[fi]; }, stats);
  return stats;
}

}  // namespace osp

// Self-registering RankerRegistry entries: the rankers live here, so
// their registrations do too (one file to add a ranker, like policies).
// The registered names are the rankers' display names — the keys the
// router benches' tables and BENCH_router.json rows use.
#include "api/ranker_registry.hpp"

namespace osp::api {

// Anchor referenced from rankers() so a static-library link can never
// drop this translation unit (and with it the registrars below).
void link_router_rankers() {}

namespace {

RankerRegistrar rk_randpr{
    {"randPr", "persistent random R_w frame priorities (the paper's policy)",
     {"randpr"},
     [](Rng rng) { return std::make_unique<RandPrRanker>(rng); }}};
RankerRegistrar rk_weight{
    {"by-weight", "deterministic: protect the heaviest frames",
     {},
     [](Rng) { return std::make_unique<WeightRanker>(); }}};
RankerRegistrar rk_fifo{
    {"drop-tail", "no preference: later arrivals lose (classic drop-tail)",
     {},
     [](Rng) { return std::make_unique<FifoRanker>(); }}};
RankerRegistrar rk_random{
    {"random-drop", "uniform random priorities regardless of weight",
     {"random"},
     [](Rng rng) { return std::make_unique<RandomRanker>(rng); }}};

}  // namespace
}  // namespace osp::api
