// Unit tests for util: RNG behaviour and math helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "util/math.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, NearbySeedsUncorrelated) {
  // Adjacent integer seeds must not produce near-identical streams.
  Rng a(100), b(101);
  int same = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.below(0), RequireError);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformOpenNeverZero) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.uniform_open(), 0.0);
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceProportion) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, SplitIndependence) {
  Rng parent(5);
  Rng c1 = parent.split(0);
  Rng c2 = parent.split(0);  // successive splits with same stream id differ
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (c1() == c2()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitReproducible) {
  Rng p1(5), p2(5);
  Rng a = p1.split(3), b = p2.split(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a(), b());
}

// The stream Rng(seed) is defined to yield (see rng.hpp), built with
// std::seed_seq as the oracle.
std::mt19937_64 reference_engine(std::uint64_t seed) {
  std::uint64_t state = seed;
  std::seed_seq seq{splitmix64(state), splitmix64(state), splitmix64(state),
                    splitmix64(state)};
  return std::mt19937_64(seq);
}

// 0, 1 and 2^64-1, the small seeds 2..500, and 500 scattered ones.
std::vector<std::uint64_t> stream_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, ~std::uint64_t{0}};
  for (std::uint64_t s = 2; s <= 500; ++s) seeds.push_back(s);
  std::uint64_t state = 2026;
  for (int i = 0; i < 500; ++i) seeds.push_back(splitmix64(state));
  return seeds;
}

// mt19937_64 regenerates its 312-word state every 312 draws, so this many
// draws cross two regenerations after the first.
constexpr int kStreamDraws = 640;

TEST(Rng, StreamMatchesSeedSeqDefinition) {
  for (std::uint64_t seed : stream_seeds()) {
    Rng rng(seed);
    std::mt19937_64 ref = reference_engine(seed);
    for (int d = 0; d < kStreamDraws; ++d)
      ASSERT_EQ(rng(), ref()) << "seed " << seed << ", draw " << d;
  }
}

TEST(Rng, CopiesContinueTheStream) {
  for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{77},
                             ~std::uint64_t{0}}) {
    std::mt19937_64 ref = reference_engine(seed);
    Rng rng(seed);
    Rng unexpanded = rng;
    for (int d = 0; d < 100; ++d) ASSERT_EQ(rng(), ref());
    Rng mid_stream = rng;
    for (int d = 0; d < kStreamDraws; ++d) {
      const std::uint64_t want = ref();
      ASSERT_EQ(rng(), want) << "seed " << seed << ", draw " << 100 + d;
      ASSERT_EQ(mid_stream(), want) << "seed " << seed << ", draw " << 100 + d;
    }
    std::mt19937_64 ref_start = reference_engine(seed);
    for (int d = 0; d < kStreamDraws; ++d)
      ASSERT_EQ(unexpanded(), ref_start()) << "seed " << seed << ", draw " << d;
  }
}

TEST(Rng, EngineAndSplitOnUnexpandedRngAgreeWithDrawing) {
  for (std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{1} << 40}) {
    // engine() expands without drawing; engine and Rng draws then share
    // one stream.
    std::mt19937_64 ref = reference_engine(seed);
    Rng rng(seed);
    std::mt19937_64& engine = rng.engine();
    for (int d = 0; d < kStreamDraws; ++d)
      ASSERT_EQ(d % 2 == 0 ? engine() : rng(), ref()) << "draw " << d;

    // split() on an unexpanded parent takes exactly one draw, and its
    // child matches the child of a parent expanded beforehand.
    Rng lazy_parent(seed), expanded_parent(seed);
    expanded_parent.engine();
    Rng lazy_child = lazy_parent.split(9);
    Rng expanded_child = expanded_parent.split(9);
    Rng child_copy = lazy_child;
    std::mt19937_64 parent_ref = reference_engine(seed);
    parent_ref();
    for (int d = 0; d < kStreamDraws; ++d) {
      const std::uint64_t want = expanded_child();
      ASSERT_EQ(lazy_child(), want) << "draw " << d;
      ASSERT_EQ(child_copy(), want) << "draw " << d;
      ASSERT_EQ(lazy_parent(), parent_ref()) << "draw " << d;
    }
  }
}

TEST(Rng, ExponentialPositiveAndMean) {
  Rng rng(29);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double x = rng.exponential(2.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);  // mean = 1/rate
}

TEST(Math, Isqrt) {
  EXPECT_EQ(isqrt(0), 0u);
  EXPECT_EQ(isqrt(1), 1u);
  EXPECT_EQ(isqrt(3), 1u);
  EXPECT_EQ(isqrt(4), 2u);
  EXPECT_EQ(isqrt(15), 3u);
  EXPECT_EQ(isqrt(16), 4u);
  EXPECT_EQ(isqrt(1'000'000), 1000u);
  EXPECT_EQ(isqrt(999'999), 999u);
}

TEST(Math, IsqrtLarge) {
  std::uint64_t big = 0xFFFFFFFFULL;  // (2^32 - 1)
  EXPECT_EQ(isqrt(big * big), big);
  EXPECT_EQ(isqrt(big * big + 1), big);
  EXPECT_EQ(isqrt(big * big - 1), big - 1);
}

TEST(Math, CheckedPow) {
  EXPECT_EQ(checked_pow(2, 10), 1024u);
  EXPECT_EQ(checked_pow(3, 0), 1u);
  EXPECT_EQ(checked_pow(7, 3), 343u);
  EXPECT_THROW(checked_pow(2, 64), RequireError);
}

TEST(Math, PowMod) {
  EXPECT_EQ(pow_mod(2, 10, 1000), 24u);
  EXPECT_EQ(pow_mod(5, 0, 7), 1u);
  EXPECT_EQ(pow_mod(3, 100, 7), 4u);  // 3^6 = 1 mod 7, 100 mod 6 = 4, 3^4=81=4
}

TEST(Math, MulModNoOverflow) {
  std::uint64_t big = 0xFFFFFFFFFFFFFFFULL;
  EXPECT_EQ(mul_mod(big, big, 1'000'000'007ULL),
            static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(big) * big) %
                1'000'000'007ULL));
}

TEST(Math, Gcd) {
  EXPECT_EQ(gcd64(12, 18), 6u);
  EXPECT_EQ(gcd64(17, 5), 1u);
  EXPECT_EQ(gcd64(0, 9), 9u);
  EXPECT_EQ(gcd64(9, 0), 9u);
}

TEST(Math, Harmonic) {
  EXPECT_DOUBLE_EQ(harmonic(0), 0.0);
  EXPECT_DOUBLE_EQ(harmonic(1), 1.0);
  EXPECT_NEAR(harmonic(4), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
}

TEST(Math, MeanStddev) {
  std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Require, MacroThrows) {
  EXPECT_THROW(OSP_REQUIRE(1 == 2), RequireError);
  EXPECT_NO_THROW(OSP_REQUIRE(1 == 1));
}

TEST(Require, MessageIncluded) {
  try {
    OSP_REQUIRE_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const RequireError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace osp
