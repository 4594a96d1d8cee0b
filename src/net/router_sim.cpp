#include "net/router_sim.hpp"

#include "core/game.hpp"
#include "core/priority.hpp"

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
  // The paper's reduction, played by the block engine: it checks every
  // slot's answer against the rules and counts each frame's served
  // packets in scratch.got.
  PlayScratch scratch;
  const Outcome out =
      play_flat_blocks(schedule.to_instance(service_rate), alg, scratch);
  RouterStats stats;
  stats.packets_arrived = schedule.total_packets();
  stats.packets_served = out.decisions;
  stats.packets_dropped = stats.packets_arrived - stats.packets_served;
  tally_frames(schedule, [&](std::size_t fi) { return scratch.got[fi]; },
               stats);
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
