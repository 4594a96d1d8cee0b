// FrameSchedule — the shared "packets on a timeline" representation that
// the video/bursty generators produce and the router simulator consumes.
//
// A frame is a weighted group of packets, each occupying a distinct time
// slot.  The paper's reduction (Section 1) maps a schedule to an osp
// instance: elements are the time slots, a slot belongs to frame i iff a
// packet of frame i arrives in that slot, and the slot capacity is the
// link rate.
#pragma once

#include <cstddef>
#include <vector>

#include "core/instance.hpp"

namespace osp {

/// A multi-packet data frame on the timeline.
struct Frame {
  Weight weight = 1.0;
  std::vector<std::size_t> packet_slots;  // strictly increasing slot ids
};

/// A full arrival schedule at one bottleneck link.
struct FrameSchedule {
  std::vector<Frame> frames;
  std::size_t horizon = 0;  // number of slots (all packet_slots < horizon)

  /// Number of packets across all frames.
  std::size_t total_packets() const;

  /// Packets arriving in each slot (index = slot id).
  std::vector<std::size_t> burst_profile() const;

  /// Largest burst (max simultaneous packets in one slot).
  std::size_t max_burst() const;

  /// The paper's reduction to osp.  Slots with no packets are skipped;
  /// every remaining slot becomes an element with capacity
  /// `link_capacity`, whose parents are the frames with a packet there.
  Instance to_instance(Capacity link_capacity = 1) const;

  /// Checks structural validity (positive weights, at least one packet
  /// per frame, slots strictly increasing and within horizon); throws
  /// RequireError if violated.
  void validate() const;
};

}  // namespace osp
