// The online game engine: feeds an instance to an algorithm, enforces the
// rules of osp, and scores the outcome.
//
// Three engines share one rule set.  The library's simulators and scorers
// play the game on them, not in loops of their own (play_general,
// core/general.hpp, plays the general variant under its own rules):
//   * play()/play_flat()  — the flat engine: drives the allocation-free
//     decide() path with caller-owned reusable buffers (PlayScratch), so a
//     steady-state trial performs zero heap allocations per element.
//     What the tests, bench_perf's "flat" mode and two walkthrough
//     examples play on; GameEngine below is its one-arrival-at-a-time
//     form, for the Theorem 3 adaptive adversary and the multi-hop
//     pipeline (simulate_pipeline, one engine per switch).
//   * play_flat_blocks()  — the block engine: drives decide_batch() over
//     contiguous CSR arrival blocks (one virtual call per block), then
//     validates and scores the packed choices per element.  Decision-
//     identical to play_flat by the decide_batch contract; what every
//     measured trial (engine::run_play_trial_cached, behind Session's
//     measure() and run_grid()), the unbuffered router (simulate_router,
//     on the schedule's to_instance), partial-credit play (play_partial,
//     which rescores PlayScratch::got) and bench_perf's "block" mode use.
//   * play_reference()    — the seed engine, preserved verbatim as the
//     golden reference: takes each answer as a vector (choose()) and
//     validates with the original allocating checks.  The fuzz suite
//     proves all engines produce identical Outcomes (including the
//     decision traces) for every algorithm in the library.
#pragma once

#include <vector>

#include "core/algorithm.hpp"
#include "core/instance.hpp"

namespace osp {

/// Result of one run of an algorithm on an instance.
struct Outcome {
  std::vector<SetId> completed;       // ids of completed sets, ascending
  std::vector<bool> completed_mask;   // per-set completion flags
  Weight benefit = 0;                 // total weight of completed sets
  std::size_t decisions = 0;          // total set-assignments made
};

/// Reusable buffers for the flat engine.  One per thread; passing the same
/// scratch to successive runs amortizes every per-run allocation away.
struct PlayScratch {
  std::vector<SetMeta> metas;        // per-set metadata handed to start()
  std::vector<std::uint32_t> got;    // per-set received-element counts
  std::vector<SetId> chosen;         // per-element decision buffer
  BlockScratch block_scratch;        // decide_batch workspace
  BlockChoices block_choices;        // decide_batch flat output
};

/// Runs `alg` over `inst` from the beginning and scores it.
///
/// Enforces the osp rules: each answer must be a duplicate-free subset of
/// the candidates with at most b(u) entries; violations throw RequireError
/// (an algorithm bug, not an input condition).  A set is completed iff it
/// was chosen at every one of its elements; empty sets complete vacuously.
Outcome play(const Instance& inst, OnlineAlgorithm& alg);

/// play() with caller-owned scratch: identical semantics, but all engine
/// buffers are reused across calls (the batch runner's per-thread path).
Outcome play_flat(const Instance& inst, OnlineAlgorithm& alg,
                  PlayScratch& scratch);

/// Block-stepped play(): drives decide_batch() over contiguous arrival
/// blocks of `block_size` elements (0 = kDefaultDecideBlock) instead of
/// decide() per element.  Decision-identical to play_flat — same rules
/// enforced on every element's packed choice, same Outcome — with one
/// virtual dispatch per block; the fuzz suite proves the identity for
/// every policy at several block sizes.
Outcome play_flat_blocks(const Instance& inst, OnlineAlgorithm& alg,
                         PlayScratch& scratch, std::size_t block_size = 0);

/// The seed engine, kept as the golden reference for equivalence tests:
/// takes each answer as a vector (choose()) and validates it with the
/// original allocating checks, exactly as the seed implementation did.  Semantically identical to play().
Outcome play_reference(const Instance& inst, OnlineAlgorithm& alg);

/// Incremental engine for callers whose arrivals depend on earlier
/// answers: adaptive adversaries (Theorem 3), which interleave
/// construction of the arrival sequence with the algorithm's answers, and
/// the multi-hop pipeline, where a switch sees only the packets that won
/// upstream.  Feed elements one at a time and inspect which sets remain
/// completable.  Runs on the flat decide() path internally; step() keeps
/// its vector API because adversaries build parent lists incrementally.
class GameEngine {
 public:
  /// Starts a game over m sets with the given metadata.
  GameEngine(std::vector<SetMeta> sets, OnlineAlgorithm& alg);

  /// Presents one arrival; returns the algorithm's (validated) choice.
  std::vector<SetId> step(const std::vector<SetId>& parents,
                          Capacity capacity = 1);

  /// True while s has been assigned every element of it presented so far.
  bool is_alg_active(SetId s) const { return alg_active_[s]; }

  /// Elements of s presented so far.
  std::size_t presented(SetId s) const { return presented_[s]; }

  /// Scores the game assuming it ended now: s completes iff it stayed
  /// active AND received exactly its declared size.
  Outcome finish() const;

  std::size_t num_sets() const { return sets_.size(); }

 private:
  std::vector<SetMeta> sets_;
  OnlineAlgorithm& alg_;
  std::vector<bool> alg_active_;
  std::vector<std::size_t> presented_;
  std::vector<SetId> sorted_;  // scratch: sorted candidates per step
  std::vector<SetId> chosen_;  // scratch: decision buffer per step
  ElementId next_element_ = 0;
  std::size_t decisions_ = 0;
};

}  // namespace osp
