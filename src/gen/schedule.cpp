#include "gen/schedule.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace osp {

std::size_t FrameSchedule::total_packets() const {
  std::size_t total = 0;
  for (const Frame& f : frames) total += f.packet_slots.size();
  return total;
}

std::vector<std::size_t> FrameSchedule::burst_profile() const {
  std::vector<std::size_t> profile(horizon, 0);
  for (const Frame& f : frames)
    for (std::size_t slot : f.packet_slots) ++profile[slot];
  return profile;
}

std::size_t FrameSchedule::max_burst() const {
  std::size_t best = 0;
  for (std::size_t b : burst_profile()) best = std::max(best, b);
  return best;
}

void FrameSchedule::validate() const {
  for (const Frame& f : frames) {
    // Positive, not just non-negative: the R_w priority distribution is
    // undefined at w <= 0 (rw_key_from_uniform rejects it), and a frame
    // that cannot carry value has no business on the link.  Validating
    // here once lets every ranker drop its defensive clamp.
    OSP_REQUIRE_MSG(f.weight > 0, "frame weight must be positive, got "
                                      << f.weight);
    // A frame with no packets would count as delivered without ever
    // touching the link.
    OSP_REQUIRE_MSG(!f.packet_slots.empty(), "frame with no packets");
    OSP_REQUIRE(std::is_sorted(f.packet_slots.begin(), f.packet_slots.end()));
    OSP_REQUIRE(std::adjacent_find(f.packet_slots.begin(),
                                   f.packet_slots.end()) ==
                f.packet_slots.end());
    for (std::size_t slot : f.packet_slots) OSP_REQUIRE(slot < horizon);
  }
}

Instance FrameSchedule::to_instance(Capacity link_capacity) const {
  OSP_REQUIRE(link_capacity >= 1);
  validate();
  InstanceBuilder builder;
  for (const Frame& f : frames) builder.add_set(f.weight);

  std::vector<std::vector<SetId>> slot_frames(horizon);
  for (std::size_t fi = 0; fi < frames.size(); ++fi)
    for (std::size_t slot : frames[fi].packet_slots)
      slot_frames[slot].push_back(static_cast<SetId>(fi));

  for (std::size_t slot = 0; slot < horizon; ++slot) {
    if (slot_frames[slot].empty()) continue;
    builder.add_element(std::move(slot_frames[slot]), link_capacity);
  }
  return builder.build();
}

}  // namespace osp
