#include "net/queue.hpp"

#include <algorithm>
#include <cmath>

#include "core/priority.hpp"
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
  sort_batch(buf_.data() + begin, buf_.size() - begin);
  runs_.push_back(Run{begin, buf_.size()});
  for (std::size_t i = runs_.size() - 1; i > 0; --i) {
    const Run& older = runs_[i - 1];
    const Run& newer = runs_[i];
    if (older.tail - older.head < 2 * (newer.tail - newer.head)) merge(i - 1);
  }
  pending_ = buf_.size();
}

// Sorts a batch of n > 0 entries worst first, in place: an insertion sort
// by the exact order, after the radix sort has put a wide batch in image
// order, so that only image ties move.
void PacketQueue::sort_batch(Entry* batch, std::size_t n) {
  if (n >= kRadixMinBatch)
    radix_sort(batch, n);
  else  // the runtime pushes ascending keys: reversed, equal ranks are sorted
    std::reverse(batch, batch + n);
  for (std::size_t i = 1; i < n; ++i) {
    const Entry e = batch[i];
    std::size_t j = i;
    for (; j > 0 && worse(e, batch[j - 1]); --j) batch[j] = batch[j - 1];
    batch[j] = e;
  }
}

// Puts the batch in the order of its ranks' quantized_key_rank images,
// ties in key descending order: a stable LSD radix sort of the words
// image << 32 | index, then one gather through merged_.
void PacketQueue::radix_sort(Entry* batch, std::size_t n) {
  OSP_REQUIRE_MSG(n >> 32 == 0, "a batch of " << n << " packets is too wide");
  auto image = [](double rank) -> std::uint64_t {
    return quantized_key_rank(rank);
  };

  // Stable passes keep image ties in input order, so the words go in key
  // descending, the worse-first tie order.  The runtime pushes a batch in
  // ascending key order, so it is read backwards; any other push order is
  // key-sorted first.
  words_.resize(n);
  bool ascending = true;
  for (std::size_t i = 1; i < n && ascending; ++i)
    ascending = batch[i - 1].key < batch[i].key;
  if (ascending) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = n - 1 - j;
      words_[j] = image(batch[i].rank) << 32 | i;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) words_[i] = i;
    std::sort(words_.begin(), words_.end(),
              [batch](std::uint64_t a, std::uint64_t b) {
                return batch[a].key > batch[b].key;
              });
    for (std::uint64_t& w : words_) w |= image(batch[w].rank) << 32;
  }

  // Four byte passes over the image; a pass whose digit is the same for
  // every word would move nothing and is skipped (drop-tail skips all).
  std::uint32_t count[4][256] = {};
  for (std::uint64_t w : words_)
    for (unsigned d = 0; d < 4; ++d) ++count[d][(w >> (32 + 8 * d)) & 0xff];
  words_scratch_.resize(n);
  for (unsigned d = 0; d < 4; ++d) {
    const unsigned shift = 32 + 8 * d;
    std::uint32_t* c = count[d];
    if (c[(words_[0] >> shift) & 0xff] == n) continue;
    std::uint32_t sum = 0;
    for (unsigned v = 0; v < 256; ++v) {
      const std::uint32_t k = c[v];
      c[v] = sum;
      sum += k;
    }
    for (std::uint64_t w : words_) words_scratch_[c[(w >> shift) & 0xff]++] = w;
    words_.swap(words_scratch_);
  }

  merged_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    merged_[i] = batch[words_[i] & 0xffffffff];
  std::copy(merged_.begin(), merged_.end(), batch);
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
