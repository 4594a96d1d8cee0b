#include "net/queue.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace osp {

// A run's order, worst first: rank ascending, then the later arrival (the
// larger key) first.  Ranks compare as doubles, so -0.0 and +0.0 tie.
bool PacketQueue::worse(const Entry& a, const Entry& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.key > b.key;
}

void PacketQueue::reset(std::size_t num_frames) {
  buf_.clear();
  runs_.clear();
  pending_ = 0;
  live_count_.assign(num_frames, 0);
  live_ = 0;
}

void PacketQueue::push(SetId frame, double rank, std::size_t slot) {
  OSP_REQUIRE_MSG(frame < live_count_.size(), "unknown frame " << frame);
  OSP_REQUIRE_MSG(!std::isnan(rank), "frame " << frame << " ranked NaN");
  OSP_REQUIRE_MSG(std::uint64_t{slot} >> 32 == 0,
                  "slot " << slot << " does not fit a 32-bit queue key");
  if (is_dead(frame)) return;
  buf_.push_back(Entry{rank, std::uint64_t{slot} << 32 | frame});
  ++live_;
  ++live_count_[frame];
}

// Sorts the pending batch into the newest run, then restores the collapse
// rule from the newest pair down: merging a pair only grows the older run,
// so the pairs above it keep the rule.
void PacketQueue::seal_batch() {
  // The batch moves down over what the newest run's back pops freed.
  const std::size_t begin = runs_.empty() ? 0 : runs_.back().tail;
  buf_.erase(buf_.begin() + static_cast<std::ptrdiff_t>(begin),
             buf_.begin() + static_cast<std::ptrdiff_t>(pending_));
  std::sort(buf_.begin() + static_cast<std::ptrdiff_t>(begin), buf_.end(),
            worse);
  runs_.push_back(Run{begin, buf_.size()});
  for (std::size_t i = runs_.size() - 1; i > 0; --i) {
    const Run& older = runs_[i - 1];
    const Run& newer = runs_[i];
    if (older.tail - older.head < 2 * (newer.tail - newer.head)) merge(i - 1);
  }
  pending_ = buf_.size();
}

// Merges runs i and i + 1 into run i, placed right after run i - 1 so the
// space the two runs' pops freed is reclaimed.
void PacketQueue::merge(std::size_t i) {
  const Run a = runs_[i];
  const Run b = runs_[i + 1];
  merged_.resize((a.tail - a.head) + (b.tail - b.head));
  std::merge(buf_.begin() + static_cast<std::ptrdiff_t>(a.head),
             buf_.begin() + static_cast<std::ptrdiff_t>(a.tail),
             buf_.begin() + static_cast<std::ptrdiff_t>(b.head),
             buf_.begin() + static_cast<std::ptrdiff_t>(b.tail),
             merged_.begin(), worse);
  const std::size_t begin = i == 0 ? 0 : runs_[i - 1].tail;
  std::copy(merged_.begin(), merged_.end(),
            buf_.begin() + static_cast<std::ptrdiff_t>(begin));
  runs_[i] = Run{begin, begin + merged_.size()};
  runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
}

template <bool kBest>
bool PacketQueue::pop(SetId* frame, std::size_t* slot) {
  if (live_ == 0) return false;
  if (pending_ < buf_.size()) seal_batch();
  for (;;) {  // live_ > 0, so some run holds a live packet
    std::size_t r = 0;
    for (std::size_t j = 1; j < runs_.size(); ++j) {
      if (kBest ? worse(buf_[runs_[r].tail - 1], buf_[runs_[j].tail - 1])
                : worse(buf_[runs_[j].head], buf_[runs_[r].head]))
        r = j;
    }
    Run& run = runs_[r];
    const Entry e = kBest ? buf_[--run.tail] : buf_[run.head++];
    if (run.head == run.tail)
      runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(r));
    const auto f = static_cast<SetId>(e.key);  // the key's low 32 bits
    if (is_dead(f)) continue;  // lazy deletion: already written off
    --live_;
    --live_count_[f];
    *frame = f;
    if (slot != nullptr) *slot = static_cast<std::size_t>(e.key >> 32);
    return true;
  }
}

bool PacketQueue::pop_best(SetId* frame, std::size_t* slot) {
  return pop<true>(frame, slot);
}

bool PacketQueue::pop_worst(SetId* frame, std::size_t* slot) {
  return pop<false>(frame, slot);
}

std::size_t PacketQueue::kill_frame(SetId frame) {
  OSP_REQUIRE_MSG(frame < live_count_.size(), "unknown frame " << frame);
  if (is_dead(frame)) return 0;
  const std::size_t queued = live_count_[frame];
  live_count_[frame] = kDead;
  live_ -= queued;
  return queued;
}

}  // namespace osp
