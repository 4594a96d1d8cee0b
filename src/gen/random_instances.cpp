#include "gen/random_instances.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/require.hpp"

namespace osp {

Weight draw_weight(const WeightModel& model, std::size_t rank, Rng& rng) {
  switch (model.kind) {
    case WeightModel::Kind::kUnit:
      return 1.0;
    case WeightModel::Kind::kUniform:
      return model.lo + (model.hi - model.lo) * rng.uniform();
    case WeightModel::Kind::kZipf:
      return std::pow(static_cast<double>(rank + 1), -model.zipf_s) *
             100.0;  // scaled so weights are not vanishingly small
    case WeightModel::Kind::kExponential:
      return 1.0 + rng.exponential(model.rate);
  }
  return 1.0;
}

namespace {

// Draws of distinct values from [0, n), each tested against a stamp per
// value rather than a hash set: value v is taken in the current draw iff
// stamp_[v] == epoch_, and a new draw only bumps the epoch.
class DistinctDraws {
 public:
  explicit DistinctDraws(std::size_t n) : stamp_(n, 0) {
    OSP_REQUIRE_MSG(n <= 0xffffffffULL, "at most 2^32 - 1 values to draw from");
  }

  // k distinct values by rejection, in draw order, into out[0..k).
  void reject(std::size_t k, Rng& rng, std::uint32_t* out) {
    OSP_REQUIRE(k <= stamp_.size());
    if (++epoch_ == 0) {  // the epochs wrapped: forget every old stamp
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    for (std::size_t got = 0; got < k;) {
      const auto v = static_cast<std::uint32_t>(rng.below(stamp_.size()));
      if (stamp_[v] == epoch_) continue;
      stamp_[v] = epoch_;
      out[got++] = v;
    }
  }

  // k distinct values, uniformly: by rejection while k·3 < n, else the
  // first k of a shuffled [0, n).
  void draw(std::size_t k, Rng& rng, std::uint32_t* out) {
    const std::size_t n = stamp_.size();
    OSP_REQUIRE(k <= n);
    if (k * 3 < n) return reject(k, rng, out);
    shuffled_.resize(n);
    std::iota(shuffled_.begin(), shuffled_.end(), 0u);
    rng.shuffle(shuffled_.begin(), shuffled_.end());
    std::copy_n(shuffled_.begin(), k, out);
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> shuffled_;  // the dense path's permutation
};

// Common body for random_instance / random_capacity_instance.  Set s's k
// slots go to picks[s·k, s·k + k); a count per slot then sizes the parent
// rows, and a scatter in ascending set id fills every row already sorted.
// The draws come in the order the instances are defined by: each set's
// weight, then its slots, then one capacity per used slot.
Instance build_random(std::size_t m, std::size_t n, std::size_t k,
                      std::size_t cap_max, const WeightModel& weights,
                      Rng& rng) {
  OSP_REQUIRE(m >= 1 && k >= 1 && k <= n);
  std::vector<Weight> set_weights(m);
  std::vector<std::size_t> row_size(n, 0);
  CsrArray<SetId> rows;
  {
    std::vector<std::uint32_t> picks(m * k);
    DistinctDraws draws(n);
    for (std::size_t s = 0; s < m; ++s) {
      set_weights[s] = draw_weight(weights, s, rng);
      draws.draw(k, rng, picks.data() + s * k);
    }
    for (std::uint32_t slot : picks) ++row_size[slot];
    rows = CsrArray<SetId>::from_sizes(row_size);
    // row_size becomes each row's write cursor.
    std::copy(rows.offsets().begin(), rows.offsets().end() - 1,
              row_size.begin());
    SetId* values = rows.mutable_row(0);
    for (std::size_t s = 0; s < m; ++s)
      for (std::size_t i = s * k; i < (s + 1) * k; ++i)
        values[row_size[picks[i]]++] = static_cast<SetId>(s);
  }
  std::vector<Capacity> capacities;
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (rows.row_size(slot) == 0) continue;  // unused slot: dropped below
    capacities.push_back(
        cap_max <= 1 ? 1
                     : static_cast<Capacity>(rng.range(
                           1, static_cast<std::int64_t>(cap_max))));
  }
  rows.drop_empty_rows();
  return Instance::from_csr(std::move(set_weights), std::move(capacities),
                            std::move(rows));
}

}  // namespace

Instance random_instance(std::size_t m, std::size_t n, std::size_t k,
                         const WeightModel& weights, Rng& rng) {
  return build_random(m, n, k, 1, weights, rng);
}

Instance random_capacity_instance(std::size_t m, std::size_t n, std::size_t k,
                                  std::size_t cap_max,
                                  const WeightModel& weights, Rng& rng) {
  OSP_REQUIRE(cap_max >= 1);
  return build_random(m, n, k, cap_max, weights, rng);
}

Instance fixed_load_instance(std::size_t m, std::size_t n, std::size_t sigma,
                             const WeightModel& weights, Rng& rng) {
  OSP_REQUIRE(sigma >= 1 && sigma <= m);
  OSP_REQUIRE_MSG(n * sigma >= m, "not enough element slots to cover all sets");

  InstanceBuilder builder;
  for (std::size_t s = 0; s < m; ++s)
    builder.add_set(draw_weight(weights, s, rng));

  // Covering prefix: element e takes sets e·σ .. e·σ+σ-1 (mod m), so after
  // ceil(m/σ) elements every set belongs to at least one element.  With
  // σ <= m the window wraps at most once, onto ids it has not reached, so
  // it always holds exactly σ distinct sets.
  std::size_t covered = 0;
  std::size_t e = 0;
  for (; covered < m; ++e) {
    OSP_ASSERT(e < n);
    std::vector<SetId> parents(sigma);
    for (std::size_t i = 0; i < sigma; ++i)
      parents[i] = static_cast<SetId>((covered + i) % m);
    builder.add_element(std::move(parents), 1);
    covered += sigma;
  }
  DistinctDraws draws(m);
  for (; e < n; ++e) {
    std::vector<SetId> parents(sigma);
    draws.reject(sigma, rng, parents.data());
    builder.add_element(std::move(parents), 1);
  }
  return builder.build();
}

Instance regular_instance(std::size_t m, std::size_t k, std::size_t sigma,
                          const WeightModel& weights, Rng& rng) {
  OSP_REQUIRE(m >= 1 && k >= 1 && sigma >= 1);
  OSP_REQUIRE_MSG((m * k) % sigma == 0, "m*k must be divisible by sigma");
  const std::size_t n = m * k / sigma;
  OSP_REQUIRE_MSG(sigma <= m, "element load cannot exceed the number of sets");

  // Configuration model: m·k stubs (set s appears k times), shuffled and
  // cut into n groups of σ.  A group with a repeated set is invalid; repair
  // by swapping one offending stub with a random stub elsewhere.
  std::vector<SetId> stubs;
  stubs.reserve(m * k);
  for (std::size_t s = 0; s < m; ++s)
    for (std::size_t i = 0; i < k; ++i) stubs.push_back(static_cast<SetId>(s));
  rng.shuffle(stubs.begin(), stubs.end());

  auto group_of = [&](std::size_t pos) { return pos / sigma; };
  auto group_has = [&](std::size_t g, SetId s, std::size_t except) {
    for (std::size_t i = g * sigma; i < (g + 1) * sigma; ++i)
      if (i != except && stubs[i] == s) return true;
    return false;
  };

  const std::size_t max_passes = 200;
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    bool clean = true;
    for (std::size_t pos = 0; pos < stubs.size(); ++pos) {
      std::size_t g = group_of(pos);
      if (!group_has(g, stubs[pos], pos)) continue;
      clean = false;
      // Swap with a random position whose group accepts our stub and whose
      // stub our group accepts.
      for (std::size_t attempt = 0; attempt < 100; ++attempt) {
        std::size_t other = rng.below(stubs.size());
        std::size_t og = group_of(other);
        if (og == g) continue;
        if (group_has(og, stubs[pos], other)) continue;
        if (group_has(g, stubs[other], pos)) continue;
        std::swap(stubs[pos], stubs[other]);
        break;
      }
    }
    if (clean) {
      InstanceBuilder builder;
      for (std::size_t s = 0; s < m; ++s)
        builder.add_set(draw_weight(weights, s, rng));
      for (std::size_t g = 0; g < n; ++g) {
        std::vector<SetId> parents(stubs.begin() + g * sigma,
                                   stubs.begin() + (g + 1) * sigma);
        builder.add_element(std::move(parents), 1);
      }
      return builder.build();
    }
  }
  OSP_REQUIRE_MSG(false, "regular_instance repair did not converge (m=" << m
                             << " k=" << k << " sigma=" << sigma << ")");
  return InstanceBuilder{}.build();  // unreachable
}

}  // namespace osp
