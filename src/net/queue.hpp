// A buffered link's queue of waiting packets (net/serve.hpp): served best
// first — (rank desc, arrival slot asc, frame asc) — and, when the buffer
// overflows, trimmed worst first.
//
// The queue is a stack of sorted runs, shaped by how the serving runtime
// uses it: each slot brings all of a link's arrivals, then the grant's
// best-first pops, then the worst-first trim.
//
//   * push appends to a pending batch: O(1).
//   * The first pop after a push sorts the batch once, in place, and stacks
//     it as the newest run.  An insertion sort by the exact (rank, key)
//     order does the sorting.  A batch of kRadixMinBatch (32) packets or
//     more is first put in the order of its ranks' 32-bit
//     quantized_key_rank images (core/priority.hpp) by a stable LSD radix
//     sort: at most 4 byte passes, each skipped when its digit is the same
//     across the batch (drop-tail's all-zero ranks skip all 4), then one
//     gather of the 16-byte entries.  A larger image means a larger rank,
//     so the insertion then moves only image ties.  The passes keep ties
//     in input order, so they read the batch in key descending order, the
//     worse-first tie order: the runtime pushes in ascending key order, so
//     that is the batch read backwards, and any other push order costs a
//     key sort first.  A narrower batch skips the passes, whose fixed cost
//     (a 4 KB count table, up to four 256-step prefix sums) exceeds the
//     insertion's there, and is reversed for the same tie order.  A batch
//     of b packets costs O(b) plus the ties' insertions, and 16 B of
//     scratch per packet of the batch.
//   * Adjacent runs are then merged while one is not at least twice the
//     size of the next newer one (timsort's collapse rule), so a queue of Q
//     packets holds O(log(Q/b)) runs and each packet is merged O(log(Q/b))
//     times, amortized.
//   * Every run is sorted worst first, so pop_best takes the best of the
//     runs' backs and pop_worst the worst of their fronts: O(runs) per pop,
//     with no position index and nothing to erase from a second structure.
//
// Killing a frame is O(1): its packets are counted out of live_size() at
// once and physically discarded only when a pop meets them, so a frame
// death never walks the queue.
//
// Memory: a queued packet is one 16-byte entry (its rank and its FIFO key,
// arrival slot << 32 | frame, inline) plus at most 16 B of merge scratch;
// a frame costs 4 B (its live count, which also marks it dead).  All
// storage is reused across reset() calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace osp {

/// A buffered link's queue of waiting packets; see the file comment.
///
/// A packet is named by its frame and arrival slot.  A frame has at most
/// one packet per slot, so (rank, slot, frame) is a strict total order and
/// every pop is determined by the pushes alone.
class PacketQueue {
 public:
  /// Empties the queue and re-arms it for `num_frames` frames, reusing all
  /// allocated storage.
  void reset(std::size_t num_frames);

  /// Packets whose frame is still live (dead packets awaiting lazy
  /// deletion are already counted out).
  std::size_t live_size() const { return live_; }

  /// Live packets of one frame currently queued.
  std::size_t live_of(SetId frame) const {
    return is_dead(frame) ? 0 : live_count_[frame];
  }

  bool is_dead(SetId frame) const { return live_count_[frame] == kDead; }

  /// Enqueues the packet of `frame` that arrived in `slot` (< 2^32) with
  /// rank `rank`, which must not be NaN.  A packet of a dead frame can
  /// never be served and is discarded at once.  O(1).
  void push(SetId frame, double rank, std::size_t slot);

  /// Pops the highest-priority live packet — (rank desc, slot asc, frame
  /// asc) — into *frame/*slot; false when no live packet remains.  Dead
  /// packets met on the way are discarded without being reported (their
  /// drop was already accounted when their frame died).
  bool pop_best(SetId* frame, std::size_t* slot = nullptr);

  /// Pops the lowest-priority live packet — the reverse order.
  bool pop_worst(SetId* frame, std::size_t* slot = nullptr);

  /// Marks a frame dead; its queued packets become lazily deleted.
  /// Returns how many queued packets were newly written off.  O(1).
  std::size_t kill_frame(SetId frame);

 private:
  struct Entry {
    double rank;
    std::uint64_t key;  // arrival slot << 32 | frame: the FIFO tie-break
  };
  struct Run {
    std::size_t head;  // its first entry, the run's worst
    std::size_t tail;  // one past its last entry, the run's best
  };

  static constexpr std::size_t kRadixMinBatch = 32;  // see the file comment

  static bool worse(const Entry& a, const Entry& b);
  void seal_batch();
  void sort_batch(Entry* batch, std::size_t n);
  void radix_sort(Entry* batch, std::size_t n);
  void merge(std::size_t i);
  template <bool kBest>
  bool pop(SetId* frame, std::size_t* slot);

  std::vector<Entry> buf_;    // the runs oldest first, then the batch
  std::vector<Run> runs_;     // oldest first, none empty
  std::size_t pending_ = 0;   // buf_[pending_, end) is the unsorted batch
  std::vector<Entry> merged_;  // merge scratch, and the sorted batch
  std::vector<std::uint64_t> words_;          // the batch sort's words
  std::vector<std::uint64_t> words_scratch_;  // and its other buffer

  // Per frame: its queued live packets, or kDead once it died.  One word
  // holds both, so a pop reads one cache line of frame state.
  static constexpr std::uint32_t kDead = 0xffffffff;
  std::vector<std::uint32_t> live_count_;
  std::size_t live_ = 0;
};

}  // namespace osp
