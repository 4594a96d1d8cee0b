// Tests for the indexed priority structures behind the buffered router:
// the position-indexed d-ary heap (pop order, erase by id) and the
// double-ended PacketQueue with lazy dead-frame deletion, fuzzed against a
// naive sorted-vector reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/queue.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

// A max-heap over ids keyed by an external double array.
struct KeyedHigher {
  const std::vector<double>* keys;
  bool operator()(std::uint32_t a, std::uint32_t b) const {
    if ((*keys)[a] != (*keys)[b]) return (*keys)[a] > (*keys)[b];
    return a < b;  // total order, deterministic pops
  }
};

TEST(IndexedDaryHeap, PopsInSortedOrder) {
  Rng rng(1);
  std::vector<double> keys(200);
  for (double& k : keys) k = rng.uniform();
  IndexedDaryHeap<KeyedHigher> heap{KeyedHigher{&keys}};
  for (std::uint32_t id = 0; id < keys.size(); ++id) heap.push(id);

  std::vector<std::uint32_t> order(keys.size());
  for (std::uint32_t& id : order) id = 0;
  std::vector<std::uint32_t> expected(keys.size());
  for (std::uint32_t id = 0; id < keys.size(); ++id) expected[id] = id;
  std::sort(expected.begin(), expected.end(), KeyedHigher{&keys});

  for (std::size_t i = 0; i < keys.size(); ++i) order[i] = heap.pop();
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(order, expected);
}

TEST(IndexedDaryHeap, EraseRemovesExactlyTheEntry) {
  std::vector<double> keys{5, 1, 4, 2, 3, 0.5, 6};
  IndexedDaryHeap<KeyedHigher> heap{KeyedHigher{&keys}};
  for (std::uint32_t id = 0; id < keys.size(); ++id) heap.push(id);
  heap.erase(6);  // the current top
  heap.erase(3);  // an interior entry
  EXPECT_FALSE(heap.contains(6));
  EXPECT_FALSE(heap.contains(3));
  EXPECT_EQ(heap.size(), 5u);
  std::vector<std::uint32_t> order;
  while (!heap.empty()) order.push_back(heap.pop());
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 2, 4, 1, 5}));
}

TEST(IndexedDaryHeap, RejectsDuplicateAndAbsentIds) {
  std::vector<double> keys{1, 2};
  IndexedDaryHeap<KeyedHigher> heap{KeyedHigher{&keys}};
  heap.push(0);
  EXPECT_THROW(heap.push(0), RequireError);
  EXPECT_THROW(heap.erase(1), RequireError);
}

TEST(IndexedDaryHeap, RandomizedAgainstSortReference) {
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + rng.below(300);
    std::vector<double> keys(n);
    for (double& k : keys)
      k = rng.chance(0.3) ? 1.0 : rng.uniform();  // force ties
    IndexedDaryHeap<KeyedHigher> heap{KeyedHigher{&keys}};
    std::vector<std::uint32_t> alive;
    for (std::uint32_t id = 0; id < n; ++id) {
      heap.push(id);
      alive.push_back(id);
    }
    // Random erases, and re-keys as erase + push under the new key.
    for (int op = 0; op < 40 && !alive.empty(); ++op) {
      std::size_t pick = rng.below(alive.size());
      heap.erase(alive[pick]);
      if (rng.chance(0.5)) {
        alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        keys[alive[pick]] = rng.uniform() * 2;
        heap.push(alive[pick]);
      }
    }
    std::sort(alive.begin(), alive.end(), KeyedHigher{&keys});
    std::vector<std::uint32_t> order;
    while (!heap.empty()) order.push_back(heap.pop());
    EXPECT_EQ(order, alive) << "round " << round;
  }
}

// ---------------------------------------------------------------------
// PacketQueue.

TEST(PacketQueue, ServesByRankThenFifoAndEvictsTheReverse) {
  PacketQueue q;
  q.reset(4);
  q.push(0, 1.0, 0);
  q.push(1, 3.0, 1);
  q.push(2, 1.0, 2);
  q.push(3, 2.0, 3);
  EXPECT_EQ(q.live_size(), 4u);

  SetId f;
  std::uint64_t s;
  ASSERT_TRUE(q.pop_best(&f, &s));
  EXPECT_EQ(f, 1u);  // highest rank
  ASSERT_TRUE(q.pop_worst(&f, &s));
  EXPECT_EQ(f, 2u);  // lowest rank, later arrival loses the tie
  EXPECT_EQ(s, 2u);
  ASSERT_TRUE(q.pop_best(&f, &s));
  EXPECT_EQ(f, 3u);
  ASSERT_TRUE(q.pop_best(&f, &s));
  EXPECT_EQ(f, 0u);
  EXPECT_FALSE(q.pop_best(&f));
  EXPECT_EQ(q.live_size(), 0u);
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

TEST(PacketQueue, PushingToADeadFrameIsBornStale) {
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

// Naive reference: a vector re-scanned per operation.
struct NaivePacket {
  SetId frame;
  double rank;
  std::uint64_t seq;
};

TEST(PacketQueue, FuzzAgainstNaiveReference) {
  Rng rng(0xfeed);
  for (int round = 0; round < 30; ++round) {
    const std::size_t num_frames = 2 + rng.below(12);
    PacketQueue q;
    q.reset(num_frames);
    std::vector<NaivePacket> naive;
    std::vector<bool> dead(num_frames, false);
    std::uint64_t seq = 0;

    auto naive_best = [&]() {
      std::size_t best = naive.size();
      for (std::size_t i = 0; i < naive.size(); ++i) {
        if (dead[naive[i].frame]) continue;
        if (best == naive.size() || naive[i].rank > naive[best].rank ||
            (naive[i].rank == naive[best].rank &&
             naive[i].seq < naive[best].seq))
          best = i;
      }
      return best;
    };
    auto naive_worst = [&]() {
      std::size_t worst = naive.size();
      for (std::size_t i = 0; i < naive.size(); ++i) {
        if (dead[naive[i].frame]) continue;
        if (worst == naive.size() || naive[i].rank < naive[worst].rank ||
            (naive[i].rank == naive[worst].rank &&
             naive[i].seq > naive[worst].seq))
          worst = i;
      }
      return worst;
    };

    for (int op = 0; op < 400; ++op) {
      const double which = rng.uniform();
      if (which < 0.5) {
        const SetId f = static_cast<SetId>(rng.below(num_frames));
        // Ties are common on purpose: rank is frame-determined.
        const double rank = static_cast<double>(f % 3);
        q.push(f, rank, seq);
        if (!dead[f]) naive.push_back(NaivePacket{f, rank, seq});
        ++seq;
      } else if (which < 0.7) {
        SetId f;
        std::uint64_t s;
        const std::size_t i = naive_best();
        if (i == naive.size()) {
          EXPECT_FALSE(q.pop_best(&f, &s));
        } else {
          ASSERT_TRUE(q.pop_best(&f, &s));
          EXPECT_EQ(f, naive[i].frame);
          EXPECT_EQ(s, naive[i].seq);
          naive.erase(naive.begin() + static_cast<std::ptrdiff_t>(i));
        }
      } else if (which < 0.9) {
        SetId f;
        std::uint64_t s;
        const std::size_t i = naive_worst();
        if (i == naive.size()) {
          EXPECT_FALSE(q.pop_worst(&f, &s));
        } else {
          ASSERT_TRUE(q.pop_worst(&f, &s));
          EXPECT_EQ(f, naive[i].frame);
          EXPECT_EQ(s, naive[i].seq);
          naive.erase(naive.begin() + static_cast<std::ptrdiff_t>(i));
        }
      } else {
        const SetId f = static_cast<SetId>(rng.below(num_frames));
        const std::size_t expected =
            dead[f] ? 0
                    : static_cast<std::size_t>(std::count_if(
                          naive.begin(), naive.end(),
                          [&](const NaivePacket& p) { return p.frame == f; }));
        EXPECT_EQ(q.kill_frame(f), expected);
        dead[f] = true;
        naive.erase(std::remove_if(naive.begin(), naive.end(),
                                   [&](const NaivePacket& p) {
                                     return p.frame == f;
                                   }),
                    naive.end());
      }
      ASSERT_EQ(q.live_size(), naive.size()) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace osp
