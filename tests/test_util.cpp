// Unit tests for util: RNG behaviour and math helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "util/math.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

// A second, deliberately plain implementation of the stream rng.hpp
// defines: xoshiro256** whose state is the first four SplitMix64 outputs.
class ReferenceStream {
 public:
  explicit ReferenceStream(std::uint64_t seed)
      : s_{splitmix(seed), splitmix(seed), splitmix(seed), splitmix(seed)} {}
  explicit ReferenceStream(std::array<std::uint64_t, 4> state) : s_(state) {}

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Rng::split: one output mixed with the stream id, then one SplitMix64
  // step gives the child's seed.
  ReferenceStream split(std::uint64_t stream) {
    std::uint64_t x =
        next() ^ (stream * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
    return ReferenceStream(splitmix(x));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  static std::uint64_t splitmix(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::array<std::uint64_t, 4> s_;
};

// 0, 1 and 2^64-1, the small seeds 2..500, and 500 scattered ones.
std::vector<std::uint64_t> stream_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, ~std::uint64_t{0}};
  for (std::uint64_t s = 2; s <= 500; ++s) seeds.push_back(s);
  std::uint64_t state = 2026;
  for (int i = 0; i < 500; ++i) seeds.push_back(splitmix64(state));
  return seeds;
}

constexpr int kStreamDraws = 640;

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

TEST(Rng, UniformIsTheTop53BitsOnTheUnitGrid) {
  Rng rng(11);
  ReferenceStream ref(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    const double scaled = std::ldexp(u, 53);
    ASSERT_EQ(scaled, std::floor(scaled));
    ASSERT_EQ(static_cast<std::uint64_t>(scaled), ref.next() >> 11);
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

TEST(Rng, ReferenceMatchesPublishedOutput) {
  // xoshiro256**'s published first outputs from the state {1, 2, 3, 4}.
  ReferenceStream ref({1, 2, 3, 4});
  for (std::uint64_t want : {std::uint64_t{11520}, std::uint64_t{0},
                             std::uint64_t{1509978240},
                             std::uint64_t{1215971899390074240}})
    EXPECT_EQ(ref.next(), want);
}

TEST(Rng, FirstWordsArePinned) {
  const struct {
    std::uint64_t seed;
    std::array<std::uint64_t, 3> words;
  } pins[] = {
      {0, {0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0}},
      {1, {0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514}},
      {~std::uint64_t{0},
       {0x8f5520d52a7ead08, 0xc476a018caa1802d, 0x81de31c0d260469e}},
  };
  for (const auto& pin : pins) {
    Rng rng(pin.seed);
    for (std::uint64_t want : pin.words) EXPECT_EQ(rng(), want) << pin.seed;
  }
}

TEST(Rng, StreamMatchesReference) {
  for (std::uint64_t seed : stream_seeds()) {
    Rng rng(seed);
    ReferenceStream ref(seed);
    for (int d = 0; d < kStreamDraws; ++d)
      ASSERT_EQ(rng(), ref.next()) << "seed " << seed << ", draw " << d;
  }
}

TEST(Rng, CopiesAndSplitChildrenFollowTheReference) {
  for (std::uint64_t seed : stream_seeds()) {
    Rng rng(seed);
    ReferenceStream ref(seed);
    Rng fresh_copy = rng;
    for (int d = 0; d < 100; ++d) ASSERT_EQ(rng(), ref.next());
    Rng mid_stream = rng;
    ReferenceStream mid_ref = ref;
    Rng child = rng.split(seed % 7);
    ReferenceStream child_ref = ref.split(seed % 7);
    ReferenceStream fresh_ref(seed);
    for (int d = 0; d < kStreamDraws; ++d) {
      ASSERT_EQ(rng(), ref.next()) << "seed " << seed << ", draw " << d;
      ASSERT_EQ(mid_stream(), mid_ref.next()) << "seed " << seed;
      ASSERT_EQ(child(), child_ref.next()) << "seed " << seed;
      ASSERT_EQ(fresh_copy(), fresh_ref.next()) << "seed " << seed;
    }
  }
}

// Lemire's multiply-shift with rejection, with 2^64 mod bound computed in
// 128-bit arithmetic; counts the rejected draws.
std::uint64_t reference_below(ReferenceStream& ref, std::uint64_t bound,
                              int& rejections) {
  const auto threshold = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(1) << 64) % bound);
  for (;;) {
    const unsigned __int128 m =
        static_cast<unsigned __int128>(ref.next()) * bound;
    if (static_cast<std::uint64_t>(m) >= threshold)
      return static_cast<std::uint64_t>(m >> 64);
    ++rejections;
  }
}

TEST(Rng, BelowIsLemiresMethod) {
  Rng rng(31);
  ReferenceStream ref(31);
  int rejections = 0;
  for (std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{10}, std::uint64_t{1000}, (std::uint64_t{1} << 32) + 1,
        std::uint64_t{3} << 62, ~std::uint64_t{0}})
    for (int i = 0; i < 1000; ++i)
      ASSERT_EQ(rng.below(bound), reference_below(ref, bound, rejections))
          << "bound " << bound;
  EXPECT_EQ(rng(), ref.next());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowJustAboveTwoToThe63Rejects) {
  // 2^64 mod (2^63 + 1) is 2^63 - 1, so almost half of all draws are
  // rejected: no bound takes the rejection path more often.
  const std::uint64_t bound = (std::uint64_t{1} << 63) + 1;
  Rng rng(37);
  ReferenceStream ref(37);
  int rejections = 0, upper_half = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = rng.below(bound);
    ASSERT_LT(v, bound);
    ASSERT_EQ(v, reference_below(ref, bound, rejections));
    if (v > bound / 2) ++upper_half;
  }
  EXPECT_GT(rejections, n * 3 / 4);
  EXPECT_NEAR(upper_half, n / 2, n / 20);
}

TEST(Rng, RangeFullSpanAndSinglePoints) {
  constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  Rng rng(41);
  ReferenceStream ref(41);
  int negative = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.range(lo, hi);
    // The full span takes one raw word as the offset from lo.
    ASSERT_EQ(static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(lo),
              ref.next());
    if (v < 0) ++negative;
  }
  EXPECT_NEAR(negative, 500, 75);
  for (std::int64_t x : {lo, std::int64_t{-1}, std::int64_t{0}, hi})
    EXPECT_EQ(rng.range(x, x), x);
  EXPECT_THROW(rng.range(1, 0), RequireError);
}

TEST(Rng, PoissonMeanAndVariance) {
  Rng rng(47);
  const int n = 20000;
  for (double lambda : {0.5, 2.5, 6.0, 1000.0}) {
    double sum = 0, sum_sq = 0;
    for (int i = 0; i < n; ++i) {
      const auto x = static_cast<double>(rng.poisson(lambda));
      sum += x;
      sum_sq += x * x;
    }
    const double mean = sum / n;
    const double var = (sum_sq - n * mean * mean) / (n - 1);
    // Five standard errors of the sample mean and of the sample variance.
    EXPECT_NEAR(mean, lambda, 5 * std::sqrt(lambda / n)) << lambda;
    EXPECT_NEAR(var / lambda, 1.0, 5 * std::sqrt((2 + 1 / lambda) / n))
        << lambda;
  }
}

TEST(Rng, PoissonDomain) {
  Rng rng(53);
  EXPECT_EQ(rng.poisson(0), 0u);
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {-1.0, 1e300, inf, -inf,
                     std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(rng.poisson(bad), RequireError) << bad;
  EXPECT_NEAR(static_cast<double>(rng.poisson(Rng::kMaxPoissonMean)),
              Rng::kMaxPoissonMean, 5 * std::sqrt(Rng::kMaxPoissonMean));
}

TEST(Rng, ShuffleIsFisherYatesOnBelow) {
  Rng rng(59);
  ReferenceStream ref(59);
  int rejections = 0;
  for (std::size_t n : {0, 1, 2, 5, 100}) {
    std::vector<std::size_t> v(n), want(n);
    std::iota(v.begin(), v.end(), 0);
    std::iota(want.begin(), want.end(), 0);
    rng.shuffle(v.begin(), v.end());
    for (std::size_t i = n; i > 1; --i)
      std::swap(want[i - 1], want[reference_below(ref, i, rejections)]);
    EXPECT_EQ(v, want) << n;
    std::sort(v.begin(), v.end());
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(v[i], i);
  }
}

// Pearson's statistic for counts that should all be equal.
double chi_square(const std::vector<int>& counts) {
  double total = 0;
  for (int c : counts) total += c;
  const double expected = total / static_cast<double>(counts.size());
  double stat = 0;
  for (int c : counts) stat += (c - expected) * (c - expected) / expected;
  return stat;
}

TEST(Rng, ChiSquareUniformity) {
  // Critical values at p = 0.001 for 9, 2, 15 and 5 degrees of freedom.
  const int n = 60000;
  for (std::uint64_t seed : {61, 62, 63}) {
    Rng rng(seed);
    std::vector<int> digits(10), thirds(3), sixteenths(16), orders(6);
    for (int i = 0; i < n; ++i) ++digits[rng.below(10)];
    EXPECT_LT(chi_square(digits), 27.877) << seed;
    // x mod (3 * 2^62) would put half of all draws in the first third.
    for (int i = 0; i < n; ++i)
      ++thirds[rng.below(std::uint64_t{3} << 62) >> 62];
    EXPECT_LT(chi_square(thirds), 13.816) << seed;
    for (int i = 0; i < n; ++i)
      ++sixteenths[static_cast<std::size_t>(rng.uniform() * 16)];
    EXPECT_LT(chi_square(sixteenths), 37.697) << seed;
    for (int i = 0; i < n; ++i) {
      std::array<int, 3> v = {0, 1, 2};
      rng.shuffle(v.begin(), v.end());
      ++orders[static_cast<std::size_t>(v[0] * 2 + (v[1] > v[2] ? 1 : 0))];
    }
    EXPECT_LT(chi_square(orders), 20.515) << seed;
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
  // A messaged failure leads with its message; a bare one names the
  // expression and the file's base name.  Neither carries a directory, so
  // no error text depends on where the tree was built.
  try {
    OSP_REQUIRE_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const RequireError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("context 42", 0), 0u) << what;
    EXPECT_EQ(what.find('/'), std::string::npos) << what;
  }
  try {
    OSP_REQUIRE(1 + 1 == 3);
    FAIL() << "should have thrown";
  } catch (const RequireError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos) << what;
    EXPECT_NE(what.find("test_util.cpp:"), std::string::npos) << what;
    EXPECT_EQ(what.find('/'), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace osp
