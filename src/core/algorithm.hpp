// The online algorithm interface and a bookkeeping base class.
//
// Per Section 2 of the paper, an online algorithm initially sees only each
// set's weight and size; at each step it receives an element (its capacity
// and parent-set list) and must immediately output at most b(u) of those
// sets.  A set is completed iff it is chosen at every one of its elements.
//
// Two decision entry points exist:
//   * decide()       — the flat path every policy implements: reads
//                      candidates from a contiguous span and writes the
//                      choice into a caller-owned buffer.  Zero
//                      allocations per call once an implementation's
//                      internal scratch has warmed up.
//   * decide_batch() — the block path: consumes a whole CSR arrival block
//                      (contiguous (element, capacity, candidate-span)
//                      records) in one virtual call and writes every
//                      choice into one flat CSR-shaped output.  The
//                      default loops over decide(), so every policy works
//                      unchanged; hot policies override it with a block
//                      kernel.  This is what the game engine, the batch
//                      runner, and the router simulator drive.
// Callers that want the answer as a vector (the seed reference engine,
// tests) use the free choose() helper, which allocates it around one
// decide() call.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/csr.hpp"
#include "core/types.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {

/// What an algorithm knows about a set before any element arrives.
struct SetMeta {
  Weight weight = 1.0;
  std::size_t size = 0;
};

/// Reusable engine-owned workspace handed to decide_batch; implementations
/// may use it instead of growing their own members (the shared block
/// selection kernel uses topk as its nth_element workspace).
///
/// The `got` / `hist_applied` pair is the fused-histogram channel: an
/// engine that would otherwise re-walk every choice row to bump its
/// per-set assignment histogram may point `got` at that histogram (one
/// counter per set) and clear `hist_applied` before the call.  A kernel
/// that already touches each chosen set while writing the row — the
/// shared block selection kernel does — bumps `got` in the same pass and
/// sets `hist_applied = true`, letting the engine skip its own pass.
/// The flag is the trust boundary: only in-library kernels whose output
/// the fuzz suite proves subset-valid may set it, because the engine also
/// skips its per-row validation for a block the kernel accounted for.
/// Policies that route through the default per-element loop leave it
/// false and keep full engine-side validation.  `got == nullptr` (the
/// default) disables the channel entirely.
struct BlockScratch {
  std::vector<SetId> topk;
  std::uint32_t* got = nullptr;
  bool hist_applied = false;
};

/// Arrivals per decide_batch call when a block-stepped caller does not
/// choose its own size: large enough to amortize the virtual call per
/// block and keep the kernel's inner loop streaming, small enough that a
/// block's packed choices and offsets stay L1-resident (measured best in
/// the 1k-4k range on the router workloads; see bench_perf).
inline constexpr std::size_t kDefaultDecideBlock = 2048;

/// Interface every online policy implements.
///
/// The game engine calls start() once, then decide() once per arrival in
/// order.  Implementations must be deterministic given their own state
/// (randomized policies draw all randomness in start() or from an Rng they
/// own), so runs are reproducible.
class OnlineAlgorithm {
 public:
  virtual ~OnlineAlgorithm() = default;

  /// Display name used in benchmark tables.
  virtual std::string name() const = 0;

  /// Announces the instance: one SetMeta per set, ids 0..m-1.
  virtual void start(const std::vector<SetMeta>& sets) = 0;

  /// Re-arms the algorithm's randomness for a fresh trial without
  /// reallocating its internal arrays.
  ///
  /// Contract: when reseedable() is true, `alg.reseed(rng); alg.start(s);`
  /// must be decision-identical to a freshly constructed algorithm built
  /// from the same rng — the batch runner relies on this to reuse one
  /// algorithm object per worker across all trials of a grid cell instead
  /// of rebuilding it per trial.  Default: no-op, for policies whose
  /// start() already resets every decision-relevant bit of state.
  virtual void reseed(Rng /*rng*/) {}

  /// True when reseed() fully re-arms this algorithm (see contract
  /// above).  Defaults to false — the conservative answer for randomized
  /// policies that bake randomness in at construction — so the batch
  /// runner falls back to fresh construction; deterministic policies and
  /// those overriding reseed() return true.
  virtual bool reseedable() const { return false; }

  /// Element `u` arrives with capacity `capacity` and `num_candidates`
  /// parent sets `candidates` (sorted, distinct).  Writes the chosen sets
  /// — a subset of the candidates with at most `capacity` entries, no
  /// duplicates — to `out` and returns how many it chose.  `out` has room
  /// for min(capacity, num_candidates) entries, and implementations never
  /// write more than that.  Allocation-free on the hot policies.
  virtual std::size_t decide(ElementId u, Capacity capacity,
                             const SetId* candidates,
                             std::size_t num_candidates, SetId* out) = 0;

  /// Batched decision: consumes a whole CSR arrival block and writes all
  /// choices into `out` (offsets + ids, one row per block record).
  ///
  /// Equivalence contract: decide_batch must be decision-identical to
  /// calling decide() once per record of the block, in arrival order —
  /// including every internal state update and Rng draw, so interleaving
  /// block and per-element calls is always legal.  The fuzz suite in
  /// test_engine enforces this (traces included) for every policy.
  ///
  /// Default: the per-element loop itself, so un-ported policies run on
  /// the block engine unchanged; policies whose selection can amortize
  /// across arrivals (randPr's SoA priority kernel) override it.
  virtual void decide_batch(const ArrivalBlock& block, BlockScratch& scratch,
                            BlockChoices& out) {
    (void)scratch;
    // Sized once for the whole block (grow-only: zero allocations in
    // steady state); the answers are packed back to back.
    prepare_block_output(block, out);
    std::size_t written = 0;
    for (std::size_t i = 0; i < block.count; ++i) {
      written += decide(block.element(i), block.capacity(i),
                        block.candidates_of(i), block.num_candidates(i),
                        out.ids.data() + written);
      out.offsets[i + 1] = static_cast<std::uint32_t>(written);
    }
  }
};

/// The choice of `alg` for one arrival as a vector: sizes the buffer to
/// min(capacity, candidates), calls decide() once, and trims it to the
/// returned count — which must fit, or the policy broke the decide()
/// contract and this throws RequireError.
inline std::vector<SetId> choose(OnlineAlgorithm& alg, ElementId u,
                                 Capacity capacity,
                                 const std::vector<SetId>& candidates) {
  std::vector<SetId> out(std::min<std::size_t>(capacity, candidates.size()));
  const std::size_t n =
      alg.decide(u, capacity, candidates.data(), candidates.size(),
                 out.data());
  OSP_REQUIRE_MSG(n <= out.size(), "algorithm chose "
                                       << n << " sets, capacity is "
                                       << capacity << ", candidates "
                                       << candidates.size());
  out.resize(n);
  return out;
}

/// Base class that tracks which sets are still "active" — chosen at every
/// one of their elements seen so far — which most deterministic policies
/// condition on.  Subclasses must call record() once per decision.
class ActiveTracking : public OnlineAlgorithm {
 public:
  void start(const std::vector<SetMeta>& sets) override {
    meta_ = sets;
    counts_.assign(sets.size(), Counts{});
  }

  /// True while s has not yet missed any of its elements.
  bool is_active(SetId s) const {
    return counts_[s].progress == counts_[s].seen;
  }

  /// Number of elements of s assigned to s so far.
  std::size_t progress(SetId s) const { return counts_[s].progress; }

  /// Number of elements of s that have arrived so far.
  std::size_t seen(SetId s) const { return counts_[s].seen; }

  /// Elements of s that arrived but were not assigned to it.
  std::size_t misses(SetId s) const {
    return counts_[s].seen - counts_[s].progress;
  }

  /// Elements of s still outstanding (declared size minus seen).  Clamped
  /// at zero: an adaptive adversary (or a buggy schedule) may present a
  /// set more elements than its declared SetMeta::size, and the subtraction
  /// must not wrap std::size_t.
  std::size_t remaining(SetId s) const {
    return counts_[s].seen < meta_[s].size ? meta_[s].size - counts_[s].seen
                                           : 0;
  }

  const std::vector<SetMeta>& meta() const { return meta_; }

 protected:
  /// Advances per-set counters: every candidate saw the element; the chosen
  /// ones also received it.
  void record(const SetId* candidates, std::size_t num_candidates,
              const SetId* chosen, std::size_t num_chosen) {
    for (std::size_t i = 0; i < num_candidates; ++i)
      ++counts_[candidates[i]].seen;
    for (std::size_t i = 0; i < num_chosen; ++i)
      ++counts_[chosen[i]].progress;
  }

  void record(const std::vector<SetId>& candidates,
              const std::vector<SetId>& chosen) {
    record(candidates.data(), candidates.size(), chosen.data(),
           chosen.size());
  }

 private:
  // Both counters of a set share one 8-byte slot (elements are 32-bit
  // ids, so the counts fit), halving the cache footprint of record().
  struct Counts {
    std::uint32_t seen = 0;
    std::uint32_t progress = 0;
  };
  std::vector<SetMeta> meta_;
  std::vector<Counts> counts_;
};

}  // namespace osp
