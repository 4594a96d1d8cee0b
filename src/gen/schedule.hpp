// FrameSchedule — the shared "packets on a timeline" representation that
// the video/bursty generators and trace reader produce and the router
// simulator and serving runtime consume.
//
// A frame is a weighted group of packets, each occupying a distinct time
// slot.  The paper's reduction (Section 1) maps a schedule to an osp
// instance: elements are the time slots, a slot belongs to frame i iff a
// packet of frame i arrives in that slot, and the slot capacity is the
// link rate.
//
// Storage is CSR (core/csr.hpp), as for Instance: every frame's slots are
// one row of a single u32 array and the weights are one flat array, so a
// schedule of millions of frames is a handful of allocations.  Frames are
// appended through FrameSchedule::add_frame, which checks each frame once,
// at construction; validate() is then the O(1) horizon check every
// consumer runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/csr.hpp"
#include "core/instance.hpp"

namespace osp {

/// A multi-packet data frame on the timeline: a read-only view into its
/// schedule's storage, valid while the schedule is alive and unchanged.
struct Frame {
  Weight weight = 1.0;
  Span<std::uint32_t> packet_slots;  // strictly increasing slot ids
};

/// A schedule's frames in id order.  Indexing and iteration yield Frame
/// views; the only way to add a frame is FrameSchedule::add_frame.
class FrameList {
 public:
  class Iterator {
   public:
    Iterator(const FrameList* list, std::size_t i) : list_(list), i_(i) {}
    Frame operator*() const { return (*list_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return i_ != o.i_; }

   private:
    const FrameList* list_;
    std::size_t i_;
  };

  std::size_t size() const { return weights_.size(); }
  Frame operator[](std::size_t i) const {
    return Frame{weights_[i], slots_.row(i)};
  }
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

  /// Frame i's weight is weights()[i]; its packet slots are slots().row(i).
  const std::vector<Weight>& weights() const { return weights_; }
  const CsrArray<std::uint32_t>& slots() const { return slots_; }

  /// One past the largest slot of any frame (0 when there are none).
  std::size_t slot_end() const { return slot_end_; }

 private:
  friend struct FrameSchedule;
  CsrArray<std::uint32_t> slots_;
  std::vector<Weight> weights_;
  std::size_t slot_end_ = 0;
};

/// A full arrival schedule at one bottleneck link.
struct FrameSchedule {
  FrameList frames;
  std::size_t horizon = 0;  // number of slots; validate() checks it

  /// Reserves room for `num_frames` more frames carrying `num_packets`
  /// more packets in total.
  void reserve(std::size_t num_frames, std::size_t num_packets);

  /// Appends a frame with id frames.size().  Throws RequireError, leaving
  /// the schedule unchanged, unless the weight is positive (the R_w
  /// priority is undefined at w <= 0, and a frame that cannot carry value
  /// has no business on the link), the frame has at least one packet (an
  /// empty frame would count as delivered without touching the link), and
  /// the slots strictly increase and are below 2^32.
  void add_frame(Weight weight, const std::vector<std::size_t>& slots);

  /// Number of packets across all frames.
  std::size_t total_packets() const { return frames.slots().total_values(); }

  /// Packets arriving in each slot (index = slot id).
  std::vector<std::size_t> burst_profile() const;

  /// Largest burst (max simultaneous packets in one slot).
  std::size_t max_burst() const;

  /// The inverse of the frame -> slots rows: row t lists the frames with a
  /// packet in slot t, in ascending frame id (the canonical arrival order),
  /// one row per slot of the horizon.  The packet of frame f in slot t is
  /// therefore the (offsets()[t] + position of f in row t)-th arrival.
  CsrArray<SetId> slot_frames() const;

  /// The paper's reduction to osp.  Slots with no packets are skipped;
  /// every remaining slot becomes an element with capacity
  /// `link_capacity`, whose parents are the frames with a packet there.
  Instance to_instance(Capacity link_capacity = 1) const;

  /// Throws RequireError unless the horizon exceeds every packet slot.
  /// add_frame has already checked each frame, so this is O(1); every
  /// consumer calls it before reading the schedule.
  void validate() const;
};

}  // namespace osp
