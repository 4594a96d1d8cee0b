#include "gen/random_instances.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

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

// Draws k distinct values from [0, n).
std::vector<std::size_t> sample_distinct(std::size_t k, std::size_t n,
                                         Rng& rng) {
  OSP_REQUIRE(k <= n);
  std::unordered_set<std::size_t> seen;
  std::vector<std::size_t> out;
  out.reserve(k);
  if (k * 3 >= n) {
    // Dense: shuffle a full index vector.
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    rng.shuffle(idx.begin(), idx.end());
    idx.resize(k);
    return idx;
  }
  while (out.size() < k) {
    std::size_t v = rng.below(n);
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

// Common body for random_instance / random_capacity_instance.
Instance build_random(std::size_t m, std::size_t n, std::size_t k,
                      std::size_t cap_max, const WeightModel& weights,
                      Rng& rng) {
  OSP_REQUIRE(m >= 1 && k >= 1 && k <= n);
  // memberships[slot] = sets containing that slot.
  std::vector<std::vector<SetId>> memberships(n);
  InstanceBuilder builder;
  for (std::size_t s = 0; s < m; ++s) {
    builder.add_set(draw_weight(weights, s, rng));
    for (std::size_t slot : sample_distinct(k, n, rng))
      memberships[slot].push_back(static_cast<SetId>(s));
  }
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (memberships[slot].empty()) continue;  // unused slot: drop
    Capacity cap = cap_max <= 1
                       ? 1
                       : static_cast<Capacity>(rng.range(1, static_cast<std::int64_t>(cap_max)));
    builder.add_element(std::move(memberships[slot]), cap);
  }
  return builder.build();
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
  // ceil(m/σ) elements every set belongs to at least one element.
  std::size_t covered = 0;
  std::size_t e = 0;
  for (; covered < m; ++e) {
    OSP_ASSERT(e < n);
    std::vector<SetId> parents;
    for (std::size_t i = 0; i < sigma; ++i)
      parents.push_back(static_cast<SetId>((covered + i) % m));
    std::sort(parents.begin(), parents.end());
    parents.erase(std::unique(parents.begin(), parents.end()), parents.end());
    // With σ <= m the window wraps at most once, so duplicates only occur
    // when covered + σ > m wraps onto already-covered ids — still distinct
    // ids, so the window always has exactly σ distinct sets.
    OSP_ASSERT(parents.size() == sigma);
    builder.add_element(std::move(parents), 1);
    covered += sigma;
  }
  for (; e < n; ++e) {
    std::vector<std::size_t> pick = [&] {
      std::unordered_set<std::size_t> seen;
      std::vector<std::size_t> out;
      while (out.size() < sigma) {
        std::size_t v = rng.below(m);
        if (seen.insert(v).second) out.push_back(v);
      }
      return out;
    }();
    std::vector<SetId> parents(pick.begin(), pick.end());
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
