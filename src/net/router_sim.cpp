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
  // The per-slot bursts as one CSR array: the schedule's slot rows with the
  // empty slots' offsets dropped, so row e is the e-th non-empty slot —
  // exactly the element numbering of the paper's reduction (to_instance
  // skips empty slots too) — listing its frames in ascending id, the order
  // the packets arrive in.
  const CsrArray<SetId> slot_frames = schedule.slot_frames();
  std::vector<std::size_t> offsets{0};
  for (std::size_t slot = 0; slot < schedule.horizon; ++slot)
    if (slot_frames.row_size(slot) > 0)
      offsets.push_back(slot_frames.offsets()[slot + 1]);
  alg.start(frame_metas(schedule));

  RouterStats stats;
  stats.packets_arrived = slot_frames.total_values();
  std::vector<std::size_t> served(schedule.frames.size(), 0);

  // Feed the whole run to decide_batch in arrival blocks; each block's
  // packed choices are then validated and tallied per slot under the same
  // rules the per-element path enforced.  Every slot has the same
  // capacity, so one block-sized constant array serves all blocks.
  const std::size_t num_rows = offsets.size() - 1;
  const std::vector<Capacity> capacities(
      std::min(num_rows, kDefaultDecideBlock), service_rate);
  BlockScratch scratch;
  BlockChoices choices;
  for (std::size_t base = 0; base < num_rows; base += kDefaultDecideBlock) {
    const std::size_t count = std::min(kDefaultDecideBlock, num_rows - base);
    const ArrivalBlock block{static_cast<ElementId>(base), count,
                             capacities.data(), slot_frames.values().data(),
                             offsets.data() + base};
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
  // Weights were checked positive by FrameSchedule::add_frame; a
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
