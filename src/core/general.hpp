// General online packing — the paper's open problem 1: "generalize the
// problem to arbitrary packing problems, where the entries in the matrix
// are arbitrary non-negative integers."
//
// Here an element u arrives with b(u) units of capacity and a list of
// (set, units) demands: set S needs d(S,u) units of u.  The algorithm
// grants each demanding set either its full demand or nothing, subject to
// the granted units summing to at most b(u).  A set completes iff it is
// granted its full demand at every element that lists it.  osp is the
// special case d ≡ 1.
//
// Example: network flows reserving d bytes of a link per time slot, tasks
// needing d cores of a machine, auctions with multi-unit bids.
#pragma once

#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "core/priority.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace osp {

/// One set's requirement at an arriving element.
struct UnitDemand {
  SetId set = 0;
  std::uint32_t units = 1;
  // Explicit rather than `= default`: the library builds as C++17.
  friend bool operator==(const UnitDemand& a, const UnitDemand& b) {
    return a.set == b.set && a.units == b.units;
  }
  friend bool operator!=(const UnitDemand& a, const UnitDemand& b) {
    return !(a == b);
  }
};

/// One arrival in the general model.
struct GeneralArrival {
  std::uint32_t capacity = 1;
  std::vector<UnitDemand> demands;  // sorted by set id, distinct sets
};

/// Aggregate statistics in the generalized notation: the adjusted load of
/// an element is total demanded units / capacity.
struct GeneralStats {
  std::size_t num_sets = 0;
  std::size_t num_elements = 0;
  Weight total_weight = 0;
  std::size_t k_max = 0;        // max appearances of a set
  double nu_max = 0;            // max demanded/capacity over elements
  double nu_avg = 0;
};

/// Immutable general packing instance (built via GeneralInstanceBuilder).
class GeneralInstance {
 public:
  std::size_t num_sets() const { return weights_.size(); }
  std::size_t num_elements() const { return arrivals_.size(); }
  Weight weight(SetId s) const { return weights_[s]; }
  const std::vector<Weight>& weights() const { return weights_; }
  /// Number of elements that list set s (its size).
  std::size_t appearances(SetId s) const { return appearances_[s]; }
  const std::vector<std::size_t>& set_sizes() const { return appearances_; }
  const GeneralArrival& arrival(ElementId u) const { return arrivals_[u]; }
  GeneralStats stats() const;
  void validate() const;

 private:
  friend class GeneralInstanceBuilder;
  std::vector<Weight> weights_;
  std::vector<std::size_t> appearances_;
  std::vector<GeneralArrival> arrivals_;
};

/// Incremental constructor.
class GeneralInstanceBuilder {
 public:
  SetId add_set(Weight w = 1.0);
  /// Demands may arrive unsorted; duplicates and zero-unit demands are
  /// rejected.  Demands exceeding the element capacity are allowed (such
  /// a set can never be granted there — it is dead on arrival), matching
  /// the integer-program semantics.
  ElementId add_element(std::vector<UnitDemand> demands,
                        std::uint32_t capacity = 1);
  GeneralInstance build();

 private:
  std::vector<Weight> weights_;
  std::vector<GeneralArrival> arrivals_;
};

/// Online algorithm interface for the general model.
class GeneralAlgorithm {
 public:
  virtual ~GeneralAlgorithm() = default;
  virtual std::string name() const = 0;
  virtual void start(const std::vector<SetMeta>& sets) = 0;
  /// Returns the sets granted their full demand; granted units must sum
  /// to at most the capacity.
  virtual std::vector<SetId> on_element(ElementId u,
                                        const GeneralArrival& arrival) = 0;
};

/// Scores a run (same Outcome type as the unit-demand game).
struct GeneralOutcome {
  std::vector<SetId> completed;
  Weight benefit = 0;
};
GeneralOutcome play_general(const GeneralInstance& inst,
                            GeneralAlgorithm& alg);

/// randPr generalized: fixed R_w priorities; each element is allocated by
/// scanning candidates in priority order, granting every demand that
/// still fits (priority greedy with skipping).
class GeneralRandPr final : public GeneralAlgorithm {
 public:
  explicit GeneralRandPr(Rng rng) : rng_(rng) {}
  std::string name() const override { return "gen-randPr"; }
  void start(const std::vector<SetMeta>& sets) override;
  std::vector<SetId> on_element(ElementId u,
                                const GeneralArrival& arrival) override;

 private:
  Rng rng_;
  std::vector<PriorityKey> priorities_;
};

/// Deterministic baseline: grant by descending weight, then id.
class GeneralGreedyWeight final : public GeneralAlgorithm {
 public:
  std::string name() const override { return "gen-greedy-maxw"; }
  void start(const std::vector<SetMeta>& sets) override { metas_ = sets; }
  std::vector<SetId> on_element(ElementId u,
                                const GeneralArrival& arrival) override;

 private:
  std::vector<SetMeta> metas_;
};

/// Deterministic baseline: first-listed first.
class GeneralFirstFit final : public GeneralAlgorithm {
 public:
  std::string name() const override { return "gen-first-fit"; }
  void start(const std::vector<SetMeta>&) override {}
  std::vector<SetId> on_element(ElementId u,
                                const GeneralArrival& arrival) override;
};

}  // namespace osp
