#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace osp {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// SplitMix64 first so that nearby seeds (0, 1, 2, ...) give unrelated
// streams.  A braced list evaluates its elements in order.
Rng::Rng(std::uint64_t seed)
    : s_{splitmix64(seed), splitmix64(seed), splitmix64(seed),
         splitmix64(seed)} {}

Rng Rng::split(std::uint64_t stream) {
  // Mix the parent's next output with the stream id; the parent advances so
  // successive splits with equal stream ids still differ.
  std::uint64_t s = (*this)() ^
                    (stream * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  return Rng(splitmix64(s));
}

std::uint64_t Rng::below(std::uint64_t bound) {
  OSP_REQUIRE(bound > 0);
  // Lemire's multiply-shift: the high word of x * bound, rejecting the
  // low words below 2^64 mod bound so that every result is equally likely.
  unsigned __int128 m = static_cast<unsigned __int128>((*this)()) * bound;
  if (static_cast<std::uint64_t>(m) < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (static_cast<std::uint64_t>(m) < threshold)
      m = static_cast<unsigned __int128>((*this)()) * bound;
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  OSP_REQUIRE(lo <= hi);
  // Offsets are drawn and added in unsigned arithmetic, which wraps, so the
  // full [INT64_MIN, INT64_MAX] span overflows nothing.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  const std::uint64_t offset =
      span == std::numeric_limits<std::uint64_t>::max() ? (*this)()
                                                         : below(span + 1);
  const std::uint64_t u = static_cast<std::uint64_t>(lo) + offset;
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  // u is the two's-complement pattern of the result; ~u fits when u < 0.
  return u <= static_cast<std::uint64_t>(kMax)
             ? static_cast<std::int64_t>(u)
             : -static_cast<std::int64_t>(~u) - 1;
}

double Rng::uniform_open() {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return u;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double rate) {
  OSP_REQUIRE(rate > 0.0);
  return -std::log1p(-uniform()) / rate;
}

std::uint64_t Rng::poisson(double mean) {
  OSP_REQUIRE_MSG(mean >= 0 && mean <= kMaxPoissonMean,
                  "poisson mean must be in [0, " << kMaxPoissonMean
                                                 << "], got " << mean);
  // A sum of independent Poisson draws is Poisson with the summed mean, so
  // the mean is drawn in pieces of at most 500, where exp(-piece) is still
  // a normal double.  Each piece inverts its CDF by sequential search; the
  // search stops if the pmf underflows before the CDF reaches u.
  constexpr double kPiece = 500;
  std::uint64_t k = 0;
  for (double left = mean; left > 0; left -= kPiece) {
    const double lambda = std::min(left, kPiece);
    const double u = uniform();
    double pmf = std::exp(-lambda);
    double cdf = pmf;
    std::uint64_t x = 0;
    while (u >= cdf && pmf > 0) {
      ++x;
      pmf *= lambda / static_cast<double>(x);
      cdf += pmf;
    }
    k += x;
  }
  return k;
}

}  // namespace osp
