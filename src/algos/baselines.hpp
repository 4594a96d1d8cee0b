// Deterministic (and one memoryless randomized) online baselines.
//
// These are the natural policies a router implementer would try first; the
// paper's Theorem 3 shows every deterministic policy has competitive ratio
// at least σmax^(kmax-1), and bench_adversarial drives each of these through
// the adaptive adversary to demonstrate it (the theorem3 rows of
// BENCH_adversarial.json).
//
// All baselines prefer sets that are still completable ("active"): choosing
// a set that already lost an element can never increase the benefit.
//
// Every baseline implements the flat decide() path with reusable internal
// scratch and re-arms in place, so in a steady-state batch trial a
// baseline allocates nothing (the engine's Outcome vectors still do).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "util/rng.hpp"

namespace osp {

/// Ranks active candidates by a policy-specific score and assigns the
/// element to the top b(u); dead candidates are used only as filler (they
/// cannot matter).  Subclasses implement score(); higher wins, ties break
/// toward lower set id.
class ScoredBaseline : public ActiveTracking {
 public:
  std::size_t decide(ElementId u, Capacity capacity, const SetId* candidates,
                     std::size_t num_candidates, SetId* out) override;

  /// Deterministic: start() resets all decision-relevant state, so the
  /// default no-op reseed() is a complete re-arm.
  bool reseedable() const override { return true; }

 protected:
  /// Score of candidate s for the current element; higher is better.
  virtual double score(SetId s) const = 0;

 private:
  // Scratch, reused across decisions: each active candidate's (score, id),
  // scored once per decision, and the dead candidates.
  std::vector<std::pair<double, SetId>> scored_;
  std::vector<SetId> dead_;
};

/// Picks the earliest-id active candidates ("first listed").
class GreedyFirst final : public ScoredBaseline {
 public:
  std::string name() const override { return "greedy-first"; }

 protected:
  double score(SetId s) const override;
};

/// Picks active candidates with maximal weight.
class GreedyMaxWeight final : public ScoredBaseline {
 public:
  std::string name() const override { return "greedy-maxw"; }

 protected:
  double score(SetId s) const override;
};

/// Picks active candidates that already received the most elements
/// ("sunk cost": protect the most-invested frames).
class GreedyMostProgress final : public ScoredBaseline {
 public:
  std::string name() const override { return "greedy-progress"; }

 protected:
  double score(SetId s) const override;
};

/// Picks active candidates with the fewest elements still to come
/// ("shortest remaining": finish what is closest to done).
class GreedyFewestRemaining final : public ScoredBaseline {
 public:
  std::string name() const override { return "greedy-srpt"; }

 protected:
  double score(SetId s) const override;
};

/// Picks active candidates by maximal weight-per-remaining-element
/// (value density).
class GreedyDensity final : public ScoredBaseline {
 public:
  std::string name() const override { return "greedy-density"; }

 protected:
  double score(SetId s) const override;
};

/// Deterministic rotation: prefers active candidates with ids at or after
/// a pointer that advances with every arrival.  Scoring those ids 1 and
/// the rest 0 ranks by (wrap group, id).
class RoundRobin final : public ScoredBaseline {
 public:
  std::string name() const override { return "round-robin"; }
  void start(const std::vector<SetMeta>& sets) override;
  std::size_t decide(ElementId u, Capacity capacity, const SetId* candidates,
                     std::size_t num_candidates, SetId* out) override;

 protected:
  double score(SetId s) const override;

 private:
  std::size_t cursor_ = 0;
};

/// Memoryless randomized control: a uniformly random admissible choice at
/// each element.  Not set-consistent, hence much weaker than randPr.
class UniformRandomChoice final : public ActiveTracking {
 public:
  explicit UniformRandomChoice(Rng rng) : rng_(rng) {}
  std::string name() const override { return "uniform-random"; }
  std::size_t decide(ElementId u, Capacity capacity, const SetId* candidates,
                     std::size_t num_candidates, SetId* out) override;
  void reseed(Rng rng) override { rng_ = rng; }
  bool reseedable() const override { return true; }

 private:
  Rng rng_;
  std::vector<SetId> pool_;  // scratch
};

/// All deterministic baselines, freshly constructed (for benchmark loops).
std::vector<std::unique_ptr<OnlineAlgorithm>> make_deterministic_baselines();

}  // namespace osp
