#include "gen/schedule.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace osp {

void FrameSchedule::reserve(std::size_t num_frames, std::size_t num_packets) {
  frames.slots_.reserve(num_frames, num_packets);
  frames.weights_.reserve(frames.weights_.size() + num_frames);
}

void FrameSchedule::add_frame(Weight weight,
                              const std::vector<std::size_t>& slots) {
  const std::size_t id = frames.size();
  OSP_REQUIRE_MSG(id <= 0xffffffffULL, "frame ids are 32-bit");
  // NaN fails the comparison too.
  OSP_REQUIRE_MSG(weight > 0, "frame " << id
                                       << ": weight must be positive, got "
                                       << weight);
  OSP_REQUIRE_MSG(!slots.empty(), "frame " << id << " has no packets");
  for (std::size_t i = 1; i < slots.size(); ++i)
    OSP_REQUIRE_MSG(slots[i - 1] < slots[i],
                    "frame " << id << ": slots must be strictly increasing");
  OSP_REQUIRE_MSG(slots.back() <= 0xffffffffULL,
                  "frame " << id << ": slot " << slots.back()
                           << " does not fit in 32 bits");
  frames.slots_.push_row(slots.begin(), slots.end());
  frames.weights_.push_back(weight);
  frames.slot_end_ = std::max(frames.slot_end_, slots.back() + 1);
}

std::vector<std::size_t> FrameSchedule::burst_profile() const {
  std::vector<std::size_t> profile(horizon, 0);
  for (std::uint32_t slot : frames.slots().values()) ++profile[slot];
  return profile;
}

std::size_t FrameSchedule::max_burst() const {
  std::size_t best = 0;
  for (std::size_t b : burst_profile()) best = std::max(best, b);
  return best;
}

void FrameSchedule::validate() const {
  OSP_REQUIRE_MSG(horizon >= frames.slot_end(),
                  "horizon " << horizon << " does not cover slot "
                             << frames.slot_end() - 1);
}

// A counting pass sizes the slot rows; a scatter pass in ascending frame id
// fills each row in order.
CsrArray<SetId> FrameSchedule::slot_frames() const {
  validate();
  std::vector<std::size_t> cursor(horizon, 0);
  for (std::uint32_t slot : frames.slots().values()) ++cursor[slot];
  CsrArray<SetId> out = CsrArray<SetId>::from_sizes(cursor);
  std::fill(cursor.begin(), cursor.end(), 0);
  for (std::size_t f = 0; f < frames.size(); ++f)
    for (std::uint32_t slot : frames.slots().row(f))
      out.mutable_row(slot)[cursor[slot]++] = static_cast<SetId>(f);
  return out;
}

// The slots that carry packets are the elements, in slot order; their
// frame rows come out of slot_frames() sorted and distinct.
Instance FrameSchedule::to_instance(Capacity link_capacity) const {
  OSP_REQUIRE(link_capacity >= 1);
  CsrArray<SetId> bursts = slot_frames();
  bursts.drop_empty_rows();
  std::vector<Capacity> capacities(bursts.num_rows(), link_capacity);
  return Instance::from_csr(frames.weights(), std::move(capacities),
                            std::move(bursts));
}

}  // namespace osp
