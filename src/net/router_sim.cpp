#include "net/router_sim.hpp"

#include <algorithm>
#include <cassert>

#include "core/priority.hpp"
#include "util/require.hpp"

namespace osp {

std::vector<SetMeta> frame_metas(const FrameSchedule& schedule) {
  std::vector<SetMeta> metas;
  metas.reserve(schedule.frames.size());
  for (const Frame& f : schedule.frames)
    metas.push_back(SetMeta{f.weight, f.packet_slots.size()});
  return metas;
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
