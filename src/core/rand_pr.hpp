// Algorithm randPr — the paper's randomized online set packing algorithm
// (Section 3.1) — with its two key sources and ablation knobs.
//
//   For each set S, pick a random priority r(S) ~ R_{w(S)}.
//   On arrival of element u with capacity b(u):
//     assign u to the b(u) sets with the highest priority in C(u).
//
// The priority comes from a private random draw, or from h(set id) for a
// shared hash function h, which is what a distributed deployment (several
// routers seeing parts of the same frame) would use; Section 3.1 notes that
// kmax·σmax-wise independence suffices.  One class, RandPr, holds both: the
// key source is chosen at construction and read only by start().
//
// Selection is a linear argmax scan for b(u) = 1 and an O(σ)
// std::nth_element otherwise, with all working storage held in reusable
// member buffers — zero allocations per decision in steady state.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "core/priority.hpp"
#include "hash/universal_hash.hpp"
#include "util/rng.hpp"

namespace osp {

/// Configuration knobs for RandPr; defaults reproduce the paper exactly.
struct RandPrOptions {
  /// If true, never assign an element to a set that is already dead (the
  /// paper's algorithm does not filter; filtering is an ablation that can
  /// only help and is measured in bench_ablation).
  bool filter_dead = false;

  /// With filter_dead: a set counts as dead once it missed MORE than this
  /// many elements.  0 reproduces strict all-or-nothing scoring; r > 0
  /// matches a PartialCreditRule with max_misses = r (open problem 3).
  /// r > 0 without filter_dead throws RequireError.
  std::size_t allowed_misses = 0;

  /// If true, ignore weights when drawing priorities (all R_1), an
  /// ablation quantifying the value of the R_w distribution.
  bool ignore_weights = false;

  /// If true, redraw priorities at every element instead of fixing them
  /// per set — breaks the algorithm's consistency and serves as a negative
  /// control in bench_ablation.  Sampled keys only: a hashed randPr
  /// throws RequireError, since its priorities are a hash of the set id.
  bool fresh_priorities_per_element = false;
};

/// The paper's randPr, with either of Section 3.1's two key sources.
///
/// Sampled: each start() draws every set's R_w key from the policy's own
/// Rng.  Hashed: a set's key is rw_key_from_uniform(h(S), w, S) for a hash
/// h of the set id, with h(S) clamped to [1e-15, 1 - 1e-15] and ties
/// broken by the set id, so independent servers sharing h make consistent
/// decisions without communication.  Everything but that key computation
/// is shared.
///
/// Perf note: the paper-exact configuration never reads the activity
/// tracker (randPr conditions on nothing but its fixed priorities), so
/// this class updates ActiveTracking only when filter_dead is set; with
/// the default options the tracker stays at its start() state.
class RandPr : public ActiveTracking {
 public:
  /// Maps a set id to a uniform double in (0, 1); any of the families in
  /// hash/universal_hash.hpp adapts to it.
  using HashFn = std::function<double(std::uint64_t)>;
  /// Draws a fresh hash from an Rng: what reseed() runs for a hashed
  /// randPr.
  using Rehash = std::function<HashFn(Rng&)>;

  /// Sampled keys: `rng` seeds the per-run priority draws.
  explicit RandPr(Rng rng, RandPrOptions options = {});

  /// Hashed keys from `hash`; `label` is the display name for benchmark
  /// tables.  Without a `rehash` recipe the policy is not reseedable.
  RandPr(HashFn hash, std::string label, RandPrOptions options = {},
         Rehash rehash = nullptr);

  /// Hashed randPr over a hash family drawn from `rng`.  `options`
  /// composes like the sampled policy's (the label gains the matching
  /// /filt-style suffix) and the family's rehash recipe is installed, so
  /// every factory-built instance is reseedable.
  static std::unique_ptr<RandPr> with_polynomial(unsigned independence,
                                                 Rng& rng,
                                                 RandPrOptions options = {});
  static std::unique_ptr<RandPr> with_tabulation(Rng& rng,
                                                 RandPrOptions options = {});
  static std::unique_ptr<RandPr> with_multiply_shift(
      Rng& rng, RandPrOptions options = {});

  std::string name() const override { return label_; }
  void start(const std::vector<SetMeta>& sets) override;
  std::size_t decide(ElementId u, Capacity capacity, const SetId* candidates,
                     std::size_t num_candidates, SetId* out) override;

  /// Block kernel for the paper-exact configuration: one virtual call per
  /// arrival block, selection over the SoA priorities with the key/tie
  /// base pointers hoisted out of the per-element loop.  Stateful
  /// configurations (filter_dead, fresh priorities) fall back to the
  /// per-element loop, which preserves their side-effect order exactly.
  void decide_batch(const ArrivalBlock& block, BlockScratch& scratch,
                    BlockChoices& out) override;

  /// Sampled keys come from rng_, which start() draws fresh, so swapping
  /// the generator is a complete re-arm; hashed keys come from the hash,
  /// which reseed() redraws through the rehash recipe.  A hashed randPr
  /// without a recipe throws RequireError here.
  void reseed(Rng rng) override;
  bool reseedable() const override {
    return hash_ == nullptr || rehash_ != nullptr;
  }

  /// Priority key currently assigned to set s (for tests).
  PriorityKey priority(SetId s) const {
    return PriorityKey{keys_[s], ties_[s]};
  }

 private:
  Rng rng_;
  HashFn hash_;  // empty: sampled keys
  Rehash rehash_;
  std::string label_;
  RandPrOptions options_;
  // Priorities in structure-of-arrays form: the selection loop compares
  // keys_ (8-byte loads); ties_ is consulted only on exact key equality.
  // qranks_ is the quantized u32 projection of keys_ (see
  // quantized_key_rank) that the block kernel compares instead, falling
  // back to (keys_, ties_) on rank collisions; rebuilt by every start().
  std::vector<double> keys_;
  std::vector<std::uint64_t> ties_;
  std::vector<std::uint32_t> qranks_;
  std::vector<SetId> pool_scratch_;  // filter_dead survivors
  std::vector<SetId> topk_scratch_;  // nth_element workspace
};

/// Top-k selection of the RandPr decide() hot path, over structure-of-
/// arrays priorities: `keys` orders candidates and `ties` breaks exact key
/// collisions (the total order of PriorityKey).  Writes the
/// min(capacity, n) highest-priority candidates into `out` (descending
/// order when a selection happens; input order when every candidate fits)
/// and returns the count.  `scratch` is reused as the nth_element
/// workspace.  O(n) plus O(c log c) for the final order of the
/// c = capacity winners.
std::size_t top_by_priority_soa(const SetId* candidates, std::size_t n,
                                const double* keys,
                                const std::uint64_t* ties, Capacity capacity,
                                SetId* out, std::vector<SetId>& scratch);

/// Whole-block form of top_by_priority_soa: runs the same selection over
/// every record of `block` in one pass, writing the CSR-shaped result into
/// `out`.  `qranks` must hold quantized_key_rank(keys[s]) for every set.
/// Unit-capacity rows run a conditional-move argmax over the L1-resident
/// u32 ranks, touching the exact (keys, ties) order only on rank
/// collisions; general capacities run the per-record nth_element
/// selection.  Decision-identical, record for record, to calling
/// top_by_priority_soa per element (checked row by row in test_rand_pr
/// and through the engines in test_engine).
/// Participates in the fused-histogram channel: when scratch.got is set,
/// every chosen set's counter is bumped in the writing pass and
/// scratch.hist_applied is reported (see BlockScratch).
void top_by_priority_soa_block(const ArrivalBlock& block, const double* keys,
                               const std::uint64_t* ties,
                               const std::uint32_t* qranks,
                               BlockScratch& scratch, BlockChoices& out);

}  // namespace osp
