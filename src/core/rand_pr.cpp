#include "core/rand_pr.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace osp {

std::size_t top_by_priority_soa(const SetId* candidates, std::size_t n,
                                const double* keys,
                                const std::uint64_t* ties, Capacity capacity,
                                SetId* out, std::vector<SetId>& scratch) {
  if (n <= capacity) {
    std::copy(candidates, candidates + n, out);
    return n;
  }
  if (capacity == 0) return 0;  // degenerate: nothing may be chosen
  if (capacity == 1) {
    // Branchless argmax scan: priorities are effectively random, so a
    // branchy max would mispredict ~ln(n) times per element; conditional
    // moves keep the pipeline full.  Exact key collisions (probability ~0
    // for sampled keys, boundary clamps for hashed ones) fall back to the
    // tie field in a cold branch.
    SetId best = candidates[0];
    double best_key = keys[best];
    for (std::size_t i = 1; i < n; ++i) {
      const SetId c = candidates[i];
      const double k = keys[c];
      if (k == best_key) {  // cold: resolve by tie, preserving total order
        if (ties[c] > ties[best]) best = c;
        continue;
      }
      const bool better = k > best_key;
      best = better ? c : best;
      best_key = better ? k : best_key;
    }
    out[0] = best;
    return 1;
  }
  const auto higher = [&](SetId a, SetId b) {
    if (keys[a] != keys[b]) return keys[a] > keys[b];
    return ties[a] > ties[b];
  };
  scratch.assign(candidates, candidates + n);
  auto mid = scratch.begin() + static_cast<std::ptrdiff_t>(capacity);
  std::nth_element(scratch.begin(), mid - 1, scratch.end(), higher);
  std::sort(scratch.begin(), mid, higher);
  std::copy(scratch.begin(), mid, out);
  return capacity;
}

namespace {

/// The exact unit-capacity row argmax: scans the quantized u32 ranks —
/// a quarter of the (key, tie) footprint, L1-resident for router-scale
/// set counts — with conditional moves (priorities are effectively
/// random, so a branchy max would mispredict ~ln(n) times per row), and
/// drops to the exact (key, tie) order only when two ranks collide
/// (quantization, or genuinely equal keys from boundary-clamped hashes).
/// Because quantized_key_rank is monotone, the result IS the exact-order
/// maximum of the row, bit-identical to top_by_priority_soa's.
inline SetId exact_row_argmax(const SetId* c, std::size_t n,
                              const double* keys, const std::uint64_t* ties,
                              const std::uint32_t* qranks) {
  SetId best = c[0];
  std::uint32_t best_rank = qranks[best];
  for (std::size_t j = 1; j < n; ++j) {
    const SetId s = c[j];
    const std::uint32_t r = qranks[s];
    if (r == best_rank) {  // cold: resolve by the exact total order
      if (keys[s] != keys[best] ? keys[s] > keys[best] : ties[s] > ties[best])
        best = s;
      continue;
    }
    const bool better = r > best_rank;
    best = better ? s : best;
    best_rank = better ? r : best_rank;
  }
  return best;
}

}  // namespace

void top_by_priority_soa_block(const ArrivalBlock& block, const double* keys,
                               const std::uint64_t* ties,
                               const std::uint32_t* qranks,
                               BlockScratch& scratch, BlockChoices& out) {
  const std::size_t count = block.count;
  const std::size_t* off = block.offsets;
  const SetId* cands = block.candidates;
  const Capacity* caps = block.capacities;
  std::uint32_t* const got = scratch.got;

  prepare_block_output(block, out);

  SetId* dst = out.ids.data();
  std::size_t written = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const SetId* c = cands + off[i];
    const std::size_t n = off[i + 1] - off[i];
    const Capacity cap = caps[i];
    if (n == 0 || cap == 0) {
      out.offsets[i + 1] = static_cast<std::uint32_t>(written);
      continue;
    }
    if (cap == 1 && n > 1) {
      // The hot row shape: a unit-capacity argmax over the record's
      // candidates.  The capacity dispatch is per row, so mixed-capacity
      // blocks still take this path for their unit-capacity records.
      const SetId best = exact_row_argmax(c, n, keys, ties, qranks);
      dst[written++] = best;
      if (got != nullptr) ++got[best];
    } else {
      const std::size_t chosen = top_by_priority_soa(
          c, n, keys, ties, cap, dst + written, scratch.topk);
      if (got != nullptr)
        for (std::size_t j = 0; j < chosen; ++j) ++got[dst[written + j]];
      written += chosen;
    }
    out.offsets[i + 1] = static_cast<std::uint32_t>(written);
  }
  // Fused segmented reduce complete: every chosen set's histogram slot
  // was bumped in the same pass that wrote its row.
  if (got != nullptr) scratch.hist_applied = true;
}

namespace {

// Applies the filter_dead ablation: keeps candidates the tracker still
// expects to earn value (missed at most allowed_misses elements).
std::size_t filter_active(const ActiveTracking& tracker,
                          const SetId* candidates, std::size_t n,
                          std::size_t allowed_misses,
                          std::vector<SetId>& alive) {
  alive.clear();
  for (std::size_t i = 0; i < n; ++i)
    if (tracker.misses(candidates[i]) <= allowed_misses)
      alive.push_back(candidates[i]);
  return alive.size();
}

}  // namespace

namespace {

/// Display-name suffix of the sampled policy and the hashed factories; a
/// miss budget follows the filter ("/filt1").
std::string options_suffix(const RandPrOptions& options) {
  std::string n;
  if (options.ignore_weights) n += "/unif";
  if (options.filter_dead) n += "/filt";
  if (options.allowed_misses > 0) n += std::to_string(options.allowed_misses);
  if (options.fresh_priorities_per_element) n += "/fresh";
  return n;
}

/// Rejects the option sets in which a knob would do nothing.
const RandPrOptions& checked(const RandPrOptions& options) {
  OSP_REQUIRE_MSG(options.filter_dead || options.allowed_misses == 0,
                  "randPr's allowed_misses needs filter_dead: without the "
                  "filter a miss budget does nothing");
  return options;
}

}  // namespace

RandPr::RandPr(Rng rng, RandPrOptions options)
    : rng_(rng), label_("randPr" + options_suffix(options)),
      options_(checked(options)) {}

RandPr::RandPr(HashFn hash, std::string label, RandPrOptions options,
               Rehash rehash)
    : hash_(std::move(hash)), rehash_(std::move(rehash)),
      label_(std::move(label)), options_(checked(options)) {
  OSP_REQUIRE(hash_ != nullptr);
  OSP_REQUIRE_MSG(!options_.fresh_priorities_per_element,
                  "hashed randPr cannot redraw priorities per element: its "
                  "priorities are the hash of the set id");
}

namespace {

// The rehash recipe of hash family Hash: every call draws a fresh
// Hash(args..., rng).  A factory builds its first hash with the same
// recipe, so reseed(rng) reproduces construction from the same rng.
template <class Hash, class... Args>
RandPr::Rehash unit_hash_recipe(Args... args) {
  return [args...](Rng& rng) -> RandPr::HashFn {
    auto h = std::make_shared<Hash>(args..., rng);
    return [h](std::uint64_t key) { return h->unit(key); };
  };
}

std::unique_ptr<RandPr> hashed(const std::string& family,
                               RandPr::Rehash recipe, Rng& rng,
                               const RandPrOptions& options) {
  RandPr::HashFn hash = recipe(rng);
  return std::make_unique<RandPr>(std::move(hash),
                                  "hashPr/" + family + options_suffix(options),
                                  options, std::move(recipe));
}

}  // namespace

std::unique_ptr<RandPr> RandPr::with_polynomial(unsigned independence,
                                                Rng& rng,
                                                RandPrOptions options) {
  return hashed("poly" + std::to_string(independence),
                unit_hash_recipe<PolynomialHash>(independence), rng, options);
}

std::unique_ptr<RandPr> RandPr::with_tabulation(Rng& rng,
                                                RandPrOptions options) {
  return hashed("tab", unit_hash_recipe<TabulationHash>(), rng, options);
}

std::unique_ptr<RandPr> RandPr::with_multiply_shift(Rng& rng,
                                                    RandPrOptions options) {
  return hashed("ms", unit_hash_recipe<MultiplyShiftHash>(), rng, options);
}

void RandPr::reseed(Rng rng) {
  OSP_REQUIRE_MSG(reseedable(),
                  "a hashed randPr without a rehash recipe cannot reseed");
  rng_ = rng;
  if (rehash_ != nullptr) hash_ = rehash_(rng);
}

void RandPr::start(const std::vector<SetMeta>& sets) {
  ActiveTracking::start(sets);
  keys_.resize(sets.size());
  ties_.resize(sets.size());
  qranks_.resize(sets.size());
  for (SetId s = 0; s < sets.size(); ++s) {
    const double w =
        options_.ignore_weights ? 1.0 : std::max(sets[s].weight, 1e-12);
    // A hash value is clamped into the open interval the key transform
    // requires; collisions at the boundary are broken by the set id.
    const PriorityKey k =
        hash_ == nullptr
            ? sample_rw_key(w, rng_)
            : rw_key_from_uniform(std::clamp(hash_(s), 1e-15, 1.0 - 1e-15),
                                  w, /*tie=*/s);
    keys_[s] = k.key;
    ties_[s] = k.tie;
    qranks_[s] = quantized_key_rank(k.key);
  }
}

std::size_t RandPr::decide(ElementId, Capacity capacity,
                           const SetId* candidates,
                           std::size_t num_candidates, SetId* out) {
  if (options_.fresh_priorities_per_element) {
    for (std::size_t i = 0; i < num_candidates; ++i) {
      SetId s = candidates[i];
      double w =
          options_.ignore_weights ? 1.0 : std::max(meta()[s].weight, 1e-12);
      PriorityKey k = sample_rw_key(w, rng_);
      keys_[s] = k.key;
      ties_[s] = k.tie;
    }
  }
  // Paper-exact configuration: selection only, no pool copy and (since
  // the algorithm never reads the activity tracker) no bookkeeping.
  if (!options_.filter_dead)
    return top_by_priority_soa(candidates, num_candidates, keys_.data(),
                               ties_.data(), capacity, out, topk_scratch_);

  std::size_t pool_n = filter_active(*this, candidates, num_candidates,
                                     options_.allowed_misses, pool_scratch_);
  std::size_t chosen =
      top_by_priority_soa(pool_scratch_.data(), pool_n, keys_.data(),
                          ties_.data(), capacity, out, topk_scratch_);
  record(candidates, num_candidates, out, chosen);
  return chosen;
}

void RandPr::decide_batch(const ArrivalBlock& block, BlockScratch& scratch,
                          BlockChoices& out) {
  // The ablation configurations mutate state per arrival (fresh Rng draws,
  // activity bookkeeping); only the shared per-element loop preserves
  // their side-effect order, so the block kernel is reserved for the
  // paper-exact fixed-priority configuration.
  if (options_.filter_dead || options_.fresh_priorities_per_element) {
    OnlineAlgorithm::decide_batch(block, scratch, out);
    return;
  }
  top_by_priority_soa_block(block, keys_.data(), ties_.data(),
                            qranks_.data(), scratch, out);
}

}  // namespace osp
