// Tests for the buffered link's PacketQueue (net/queue.hpp): the serve and
// evict orders, lazy dead-frame deletion, the rank edge cases, and three
// fuzzes against a std::multiset reference — a shallow one with arbitrary
// interleavings, a deep one that holds ~20k packets and so builds a tall
// stack of runs, and a wide one whose batches of hundreds of packets run
// every pass of the batch sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "core/priority.hpp"
#include "net/queue.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

TEST(PacketQueue, ServesByRankThenFifoAndEvictsTheReverse) {
  PacketQueue q;
  q.reset(4);
  q.push(0, 1.0, 0);
  q.push(1, 3.0, 1);
  q.push(2, 1.0, 2);
  q.push(3, 2.0, 3);
  EXPECT_EQ(q.live_size(), 4u);

  SetId f;
  std::size_t slot;
  ASSERT_TRUE(q.pop_best(&f, &slot));
  EXPECT_EQ(f, 1u);  // highest rank
  ASSERT_TRUE(q.pop_worst(&f, &slot));
  EXPECT_EQ(f, 2u);  // lowest rank, later arrival loses the tie
  EXPECT_EQ(slot, 2u);
  ASSERT_TRUE(q.pop_best(&f, &slot));
  EXPECT_EQ(f, 3u);
  ASSERT_TRUE(q.pop_best(&f, &slot));
  EXPECT_EQ(f, 0u);
  EXPECT_FALSE(q.pop_best(&f));
  EXPECT_EQ(q.live_size(), 0u);
}

TEST(PacketQueue, SameSlotTiesBreakByFrame) {
  PacketQueue q;
  q.reset(3);
  q.push(2, 1.0, 5);
  q.push(0, 1.0, 5);
  q.push(1, 1.0, 4);
  SetId f;
  std::size_t slot;
  ASSERT_TRUE(q.pop_best(&f, &slot));
  EXPECT_EQ(f, 1u);  // the earliest slot
  EXPECT_EQ(slot, 4u);
  ASSERT_TRUE(q.pop_best(&f, &slot));
  EXPECT_EQ(f, 0u);  // then the lower frame within slot 5
  ASSERT_TRUE(q.pop_worst(&f, &slot));
  EXPECT_EQ(f, 2u);
  EXPECT_EQ(slot, 5u);
}

TEST(PacketQueue, KillFrameLazilyDeletesItsPackets) {
  PacketQueue q;
  q.reset(3);
  q.push(0, 5.0, 0);
  q.push(1, 4.0, 1);
  q.push(0, 5.0, 2);
  q.push(2, 3.0, 3);
  EXPECT_EQ(q.live_of(0), 2u);

  // O(1) kill: both packets of frame 0 are written off immediately...
  EXPECT_EQ(q.kill_frame(0), 2u);
  EXPECT_TRUE(q.is_dead(0));
  EXPECT_EQ(q.live_size(), 2u);
  EXPECT_EQ(q.live_of(0), 0u);
  EXPECT_EQ(q.kill_frame(0), 0u);  // idempotent

  // ...and the pops never surface them.
  SetId f;
  ASSERT_TRUE(q.pop_best(&f));
  EXPECT_EQ(f, 1u);
  ASSERT_TRUE(q.pop_best(&f));
  EXPECT_EQ(f, 2u);
  EXPECT_FALSE(q.pop_best(&f));
}

TEST(PacketQueue, PushingToADeadFrameIsDiscarded) {
  PacketQueue q;
  q.reset(2);
  q.kill_frame(0);
  q.push(0, 1.0, 0);
  q.push(1, 0.5, 1);
  EXPECT_EQ(q.live_size(), 1u);
  SetId f;
  ASSERT_TRUE(q.pop_worst(&f));
  EXPECT_EQ(f, 1u);  // the dead packet is skipped even on the evict side
  EXPECT_FALSE(q.pop_worst(&f));
}

TEST(PacketQueue, ResetReusesStorageAndClearsDeadness) {
  PacketQueue q;
  q.reset(2);
  q.push(0, 1.0, 0);
  q.kill_frame(0);
  q.reset(2);
  EXPECT_FALSE(q.is_dead(0));
  EXPECT_EQ(q.live_size(), 0u);
  q.push(0, 1.0, 0);
  SetId f;
  ASSERT_TRUE(q.pop_best(&f));
  EXPECT_EQ(f, 0u);
}

// -0.0 == +0.0 as doubles, so the two ranks tie and the key decides, in
// both directions and whichever sign arrives first.
TEST(PacketQueue, SignedZeroRanksTieAndTheKeyDecides) {
  for (bool negative_first : {true, false}) {
    PacketQueue q;
    q.reset(2);
    q.push(0, negative_first ? -0.0 : 0.0, 0);
    q.push(1, negative_first ? 0.0 : -0.0, 1);
    SetId f;
    ASSERT_TRUE(q.pop_best(&f));
    EXPECT_EQ(f, 0u) << "earlier arrival first, negative_first "
                     << negative_first;

    q.reset(2);
    q.push(0, negative_first ? -0.0 : 0.0, 0);
    q.push(1, negative_first ? 0.0 : -0.0, 1);
    ASSERT_TRUE(q.pop_worst(&f));
    EXPECT_EQ(f, 1u) << "later arrival evicted, negative_first "
                     << negative_first;
  }
}

TEST(PacketQueue, NegativeInfinityRankIsTheWorst) {
  const double inf = std::numeric_limits<double>::infinity();
  PacketQueue q;
  q.reset(3);
  q.push(0, -std::numeric_limits<double>::max(), 1);
  q.push(1, -inf, 0);
  q.push(2, inf, 2);
  SetId f;
  ASSERT_TRUE(q.pop_worst(&f));
  EXPECT_EQ(f, 1u);
  ASSERT_TRUE(q.pop_best(&f));
  EXPECT_EQ(f, 2u);
  ASSERT_TRUE(q.pop_best(&f));
  EXPECT_EQ(f, 0u);
}

TEST(PacketQueue, RejectsNanRanksUnknownFramesAndWideSlots) {
  PacketQueue q;
  q.reset(2);
  EXPECT_THROW(q.push(0, std::nan(""), 0), RequireError);
  EXPECT_THROW(q.push(2, 1.0, 0), RequireError);
  EXPECT_THROW(q.push(0, 1.0, std::size_t{1} << 32), RequireError);
  EXPECT_THROW(q.kill_frame(2), RequireError);
  EXPECT_EQ(q.live_size(), 0u);
}

// ---------------------------------------------------------------------
// Fuzz against a reference.  The multiset orders packets best first —
// (rank desc, slot asc, frame asc) — and holds only live packets.

struct RefPacket {
  double rank;
  std::size_t slot;
  SetId frame;
  bool operator<(const RefPacket& o) const {
    if (rank != o.rank) return rank > o.rank;
    if (slot != o.slot) return slot < o.slot;
    return frame < o.frame;
  }
};

class Reference {
 public:
  explicit Reference(std::size_t num_frames) : slots_(num_frames) {}

  void push(SetId frame, double rank, std::size_t slot) {
    if (dead_.count(frame) != 0) return;
    packets_.insert(RefPacket{rank, slot, frame});
    slots_[frame].push_back(std::make_pair(rank, slot));
  }

  // The packet pop_best (best) or pop_worst must return, or nullptr.
  const RefPacket* peek(bool best) const {
    if (packets_.empty()) return nullptr;
    return best ? &*packets_.begin() : &*packets_.rbegin();
  }

  void pop(bool best) {
    packets_.erase(best ? packets_.begin() : std::prev(packets_.end()));
  }

  std::size_t kill(SetId frame) {
    if (!dead_.insert(frame).second) return 0;
    std::size_t killed = 0;
    for (const auto& [rank, slot] : slots_[frame])
      killed += packets_.erase(RefPacket{rank, slot, frame});
    return killed;
  }

  std::size_t size() const { return packets_.size(); }

 private:
  std::multiset<RefPacket> packets_;
  std::set<SetId> dead_;
  std::vector<std::vector<std::pair<double, std::size_t>>> slots_;
};

// Pops one end of both and checks they agree; false on a mismatch.
::testing::AssertionResult pop_and_compare(PacketQueue& q, Reference& ref,
                                           bool best) {
  SetId f = 0;
  std::size_t slot = 0;
  const bool ok = best ? q.pop_best(&f, &slot) : q.pop_worst(&f, &slot);
  const RefPacket* want = ref.peek(best);
  if (want == nullptr) {
    if (ok) return ::testing::AssertionFailure() << "popped from empty";
    return ::testing::AssertionSuccess();
  }
  if (!ok) return ::testing::AssertionFailure() << "empty, expected a packet";
  if (f != want->frame || slot != want->slot)
    return ::testing::AssertionFailure()
           << (best ? "pop_best" : "pop_worst") << " gave frame " << f
           << " slot " << slot << ", expected frame " << want->frame
           << " slot " << want->slot;
  ref.pop(best);
  return ::testing::AssertionSuccess();
}

// Short queues, arbitrary interleavings: pops land between pushes of one
// slot, ranks tie often (rank is frame-determined), frames die at random.
TEST(PacketQueue, FuzzAgainstReference) {
  Rng rng(0xfeed);
  for (int round = 0; round < 30; ++round) {
    const std::size_t num_frames = 2 + rng.below(12);
    PacketQueue q;
    q.reset(num_frames);
    Reference ref(num_frames);
    std::size_t slot = 0;
    std::vector<bool> pushed(num_frames, false);  // in this slot

    for (int op = 0; op < 400; ++op) {
      const double which = rng.uniform();
      if (which < 0.1) {
        ++slot;
        pushed.assign(num_frames, false);
      } else if (which < 0.5) {
        const SetId f = static_cast<SetId>(rng.below(num_frames));
        if (pushed[f]) continue;  // one packet per frame per slot
        pushed[f] = true;
        const double rank = static_cast<double>(f % 3);
        q.push(f, rank, slot);
        ref.push(f, rank, slot);
      } else if (which < 0.9) {
        ASSERT_TRUE(pop_and_compare(q, ref, which < 0.7))
            << "round " << round << " op " << op;
      } else {
        const SetId f = static_cast<SetId>(rng.below(num_frames));
        EXPECT_EQ(q.kill_frame(f), ref.kill(f));
      }
      ASSERT_EQ(q.live_size(), ref.size()) << "round " << round;
    }
  }
}

// A deep queue shaped like a link's slots: 1-4 arrivals per slot, then
// best-first pops and worst-first trims, with frames killed in between.
// It fills to ~20k packets, drains and fills again, so the stack of runs
// grows tall, merges at every depth and empties; ranks tie often.
TEST(PacketQueue, DeepFuzzAgainstReference) {
  Rng rng(0xdeeb);
  const std::size_t num_frames = 100000;
  std::vector<double> rank(num_frames);  // a frame's rank is fixed
  for (std::size_t f = 0; f < num_frames; ++f)
    rank[f] = rng.chance(0.3) ? static_cast<double>(f % 5) : rng.uniform();
  PacketQueue q;
  q.reset(num_frames);
  Reference ref(num_frames);
  std::size_t born = 0;  // frames 0..born-1 have had a packet
  std::size_t peak = 0;
  std::vector<SetId> arrivals;
  for (std::size_t slot = 0; slot < 60000; ++slot) {
    // Half the arrivals continue one of the last four frames, half start
    // a new one; a frame has at most one packet per slot.
    arrivals.clear();
    for (std::size_t i = 1 + rng.below(4); i > 0; --i) {
      const std::size_t recent = std::min<std::size_t>(born, 4);
      const auto f = static_cast<SetId>(
          recent > 0 && rng.chance(0.5) ? born - 1 - rng.below(recent)
                                        : born++);
      if (std::find(arrivals.begin(), arrivals.end(), f) != arrivals.end())
        continue;
      arrivals.push_back(f);
      q.push(f, rank[f], slot);
      ref.push(f, rank[f], slot);
    }
    const bool filling = (slot / 15000) % 2 == 0;
    for (std::size_t i = filling ? rng.below(3) : 2 + rng.below(5); i > 0; --i)
      ASSERT_TRUE(pop_and_compare(q, ref, rng.chance(0.6))) << "slot " << slot;
    if (rng.chance(0.2)) {
      const auto f = static_cast<SetId>(rng.below(born));
      ASSERT_EQ(q.kill_frame(f), ref.kill(f)) << "slot " << slot;
    }
    ASSERT_EQ(q.live_size(), ref.size()) << "slot " << slot;
    peak = std::max(peak, ref.size());
  }
  EXPECT_GE(peak, 15000u);
  while (ref.size() > 0)
    ASSERT_TRUE(pop_and_compare(q, ref, rng.chance(0.5)));
  SetId f;
  EXPECT_FALSE(q.pop_best(&f));
  EXPECT_FALSE(q.pop_worst(&f));
}

// A double whose top 32 order-preserving bits are `x`'s and whose low 32
// mantissa bits are `low`: it shares x's quantized_key_rank, so only the
// batch sort's exact tie fix-up orders the two.
double with_low_bits(double x, std::uint32_t low) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  bits = (bits & ~std::uint64_t{0xffffffff}) | low;
  double y;
  std::memcpy(&y, &bits, sizeof(y));
  return y;
}

// Wide batches, the size a loaded link sees each slot (serve-overload
// brings about 142): 16-600 packets between pops, pushed in ascending,
// descending or shuffled key order, sometimes two slots' worth at once.
// Ranks mix the edge cases (±0.0, ±inf, ±DBL_MAX), values many frames
// share, and families of ranks that share one quantized_key_rank image
// but differ in their low mantissa bits.
TEST(PacketQueue, WideBatchFuzzAgainstReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const double max = std::numeric_limits<double>::max();
  Rng rng(0x5eed);
  const std::size_t num_frames = 60000;
  std::vector<double> family;  // one image, distinct low bits
  for (int i = 0; i < 6; ++i) {
    const double base = (rng.chance(0.5) ? -1.0 : 1.0) * 8.0 * rng.uniform();
    family.push_back(base);
    for (int j = 0; j < 5; ++j)
      family.push_back(
          with_low_bits(base, static_cast<std::uint32_t>(rng())));
  }
  for (std::size_t i = 1; i < family.size(); ++i)
    ASSERT_EQ(quantized_key_rank(family[i]),
              quantized_key_rank(family[i - i % 6]));
  const double edges[] = {0.0, -0.0, inf, -inf, -max, max, 1.0, -1.0};
  std::vector<double> rank(num_frames);
  for (double& r : rank) {
    const double which = rng.uniform();
    if (which < 0.4)
      r = family[rng.below(family.size())];
    else if (which < 0.6)
      r = edges[rng.below(std::size(edges))];
    else if (which < 0.7)
      r = static_cast<double>(rng.below(4));  // repeats
    else
      r = std::log(rng.uniform()) / (1.0 + rng.below(8));  // randPr-like
  }

  PacketQueue q;
  q.reset(num_frames);
  Reference ref(num_frames);
  std::size_t born = 0;  // frames 0..born-1 have had a packet
  std::vector<SetId> batch;
  std::vector<bool> in_batch(num_frames, false);
  std::size_t slot = 0;
  for (; born + 600 < num_frames; ++slot) {
    // Up to 600 distinct frames: the rest of a window of recent frames,
    // then new ones.  The smallest batches fall under the 32 packets from
    // which the batch sort's radix passes run, so both of its paths do.
    batch.clear();
    const std::size_t want = 16 + rng.below(585);
    for (std::size_t i = 0; i < want; ++i) {
      const std::size_t recent = std::min<std::size_t>(born, 800);
      const auto f = static_cast<SetId>(
          recent > 0 && rng.chance(0.5) ? born - 1 - rng.below(recent)
                                        : born++);
      if (in_batch[f]) continue;
      in_batch[f] = true;
      batch.push_back(f);
    }
    std::sort(batch.begin(), batch.end());
    const std::size_t order = slot % 3;
    if (order == 1) std::reverse(batch.begin(), batch.end());
    if (order == 2) rng.shuffle(batch.begin(), batch.end());
    for (SetId f : batch) {
      in_batch[f] = false;
      q.push(f, rank[f], slot);
      ref.push(f, rank[f], slot);
    }
    if (rng.chance(0.15)) continue;  // the next slot joins this batch

    // Serve some, kill some, then trim to a 4000-packet buffer.
    for (std::size_t i = rng.below(300); i > 0; --i)
      ASSERT_TRUE(pop_and_compare(q, ref, rng.chance(0.7)))
          << "slot " << slot << " order " << order;
    for (std::size_t i = rng.below(4); i > 0; --i) {
      const auto f = static_cast<SetId>(rng.below(born));
      ASSERT_EQ(q.kill_frame(f), ref.kill(f)) << "slot " << slot;
    }
    while (ref.size() > 4000)
      ASSERT_TRUE(pop_and_compare(q, ref, false)) << "slot " << slot;
    ASSERT_EQ(q.live_size(), ref.size()) << "slot " << slot;
  }
  EXPECT_GE(slot, 150u);
  while (ref.size() > 0)
    ASSERT_TRUE(pop_and_compare(q, ref, rng.chance(0.5)));
  SetId f;
  EXPECT_FALSE(q.pop_best(&f));
}

}  // namespace
}  // namespace osp
