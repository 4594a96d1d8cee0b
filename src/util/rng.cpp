#include "util/rng.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

#include "util/require.hpp"

namespace osp {

namespace {

// The seed sequence an Rng expands from: std::seed_seq's generate()
// algorithm ([rand.util.seedseq]) over the low 32 bits of the seed's first
// four SplitMix64 words, so mt19937_64::seed() fills exactly the state
// std::seed_seq{w0, w1, w2, w3} would.  Unlike std::seed_seq it keeps the
// words inline instead of in a heap vector, and it walks the ring with
// wrapping indices instead of four `%` per step.
class SplitMixSeedSeq {
 public:
  using result_type = std::uint32_t;

  explicit SplitMixSeedSeq(std::uint64_t seed) {
    for (result_type& w : v_) w = static_cast<result_type>(splitmix64(seed));
  }

  void generate(result_type* begin, result_type* end) const {
    const std::size_t n = static_cast<std::size_t>(end - begin);
    if (n == 0) return;
    std::fill(begin, end, 0x8b8b8b8bu);
    const std::size_t s = v_.size();
    const std::size_t t = n >= 623 ? 11
                          : n >= 68 ? 7
                          : n >= 39 ? 5
                          : n >= 7  ? 3
                                    : (n - 1) / 2;
    const std::size_t p = (n - t) / 2;
    const std::size_t q = p + t;  // p <= q < n
    const std::size_t m = std::max(s + 1, n);
    // Ring positions k, k+p, k+q and k-1 (all mod n) for the current k.
    std::size_t i = 0, ip = p, iq = q, im = n - 1;
    const auto advance = [&] {
      const auto next = [n](std::size_t x) { return x + 1 == n ? 0 : x + 1; };
      im = i;
      i = next(i);
      ip = next(ip);
      iq = next(iq);
    };
    const auto fold = [](result_type x) { return x ^ (x >> 27); };
    // First pass, step k: adds k mod n plus `extra`, which is s at k = 0,
    // input word k-1 for 1 <= k <= s, and 0 after that.
    const auto mix = [&](result_type extra) {
      const result_type r1 = 1664525u * fold(begin[i] ^ begin[ip] ^ begin[im]);
      const result_type r2 = r1 + static_cast<result_type>(i) + extra;
      begin[ip] += r1;
      begin[iq] += r2;
      begin[i] = r2;
      advance();
    };
    mix(static_cast<result_type>(s));
    std::size_t k = 1;
    for (; k <= s; ++k) mix(v_[k - 1]);
    for (; k < m; ++k) mix(0);
    for (; k < m + n; ++k) {
      const result_type r3 =
          1566083941u * fold(begin[i] + begin[ip] + begin[im]);
      const result_type r4 = r3 - static_cast<result_type>(i);
      begin[ip] ^= r3;
      begin[iq] ^= r4;
      begin[i] = r4;
      advance();
    }
  }

 private:
  std::array<result_type, 4> v_{};
};

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::mt19937_64& Rng::expand() {
  // SplitMix64 first so that nearby seeds (0, 1, 2, ...) give unrelated
  // streams.
  SplitMixSeedSeq seq(seed_);
  return engine_.emplace(seq);
}

Rng Rng::split(std::uint64_t stream) {
  // Mix the parent's next output with the stream id; the parent advances so
  // successive splits with equal stream ids still differ.
  std::uint64_t s = (*this)() ^
                    (stream * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  return Rng(splitmix64(s));
}

std::uint64_t Rng::below(std::uint64_t bound) {
  OSP_REQUIRE(bound > 0);
  return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(engine());
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  OSP_REQUIRE(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine());
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine());
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
  return std::exponential_distribution<double>(rate)(engine());
}

}  // namespace osp
