// The osp instance model: a weighted set system whose elements arrive
// online in a fixed order, each with a capacity and the list of sets that
// contain it (Section 2 of the paper).
//
// Storage is flat (CSR): all parent lists live in one contiguous array and
// all member lists in another, so the per-arrival decision path touches a
// single cache-resident row instead of chasing a vector-of-vectors.
//
// Every instance is built in linear passes.  from_csr() takes the parent
// rows as one CsrArray, counts the set sizes, scatters the transpose into
// the member rows and validates; InstanceBuilder sorts and checks each
// element's row as it arrives and appends it to its one parent CsrArray.
// validate() proves that the member rows are the exact transpose of the
// parent rows in one walk of the parent rows, with a cursor per set: O(n +
// m + total membership) sequential work and no search.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/csr.hpp"
#include "core/types.hpp"

namespace osp {

/// Zero-copy view of one arrival inside a built Instance.
struct ArrivalView {
  Capacity capacity = 1;
  Span<SetId> parents;  // sorted, distinct, borrowed from the instance
};

/// Aggregate statistics of an instance, in the paper's notation.
///
/// Loads: σ(u) = |C(u)|, weighted load σ$(u) = w(C(u)), adjusted load
/// ν(u) = σ(u)/b(u).  Averages are over elements (for loads) or sets
/// (for sizes), matching the paper's conventions.
struct InstanceStats {
  std::size_t num_sets = 0;             // m
  std::size_t num_elements = 0;         // n
  Weight total_weight = 0;              // w(C)
  std::size_t k_max = 0;                // max set size
  double k_avg = 0;                     // average set size k̄
  std::size_t sigma_max = 0;            // max load
  double sigma_avg = 0;                 // σ̄
  double sigma_sq_avg = 0;              // avg of σ(u)²
  double sigma_w_avg = 0;               // avg of σ$(u)
  double sigma_sigma_w_avg = 0;         // avg of σ(u)·σ$(u)
  double nu_max = 0;                    // max adjusted load
  double nu_avg = 0;                    // ν̄
  double nu_sigma_w_avg = 0;            // avg of ν(u)·σ$(u)
  Capacity b_max = 1;                   // max capacity
  bool unit_capacity = true;            // all b(u) == 1
  bool uniform_size = true;             // all |S| equal
  bool uniform_load = true;             // all σ(u) equal
  bool unweighted = true;               // all w(S) == 1
};

/// Immutable online set packing instance.
///
/// Construction goes through from_csr(), directly or through
/// InstanceBuilder; both validate the input.  Per the paper, algorithms
/// know each set's weight and size up front but learn membership only as
/// elements arrive.
class Instance {
 public:
  /// Builds an instance from the set weights, the element capacities and
  /// each element's parent row (sorted, distinct) in CSR form: counts the
  /// set sizes, transposes the parents into per-set member rows and
  /// validates the result (throws RequireError on inconsistent input).
  static Instance from_csr(std::vector<Weight> weights,
                           std::vector<Capacity> capacities,
                           CsrArray<SetId> parents);

  std::size_t num_sets() const { return weights_.size(); }
  std::size_t num_elements() const { return capacities_.size(); }

  Weight weight(SetId s) const { return weights_[s]; }
  const std::vector<Weight>& weights() const { return weights_; }

  /// Size |S| of set s (number of elements it contains over the full run).
  std::size_t set_size(SetId s) const { return set_sizes_[s]; }
  const std::vector<std::size_t>& set_sizes() const { return set_sizes_; }

  /// Capacity b(u).
  Capacity capacity(ElementId u) const { return capacities_[u]; }

  /// Parent sets C(u), sorted and distinct (contiguous view).
  Span<SetId> parents(ElementId u) const { return parents_.row(u); }

  /// Capacity and parents of one arrival as a single view.
  ArrivalView arrival(ElementId u) const {
    return ArrivalView{capacities_[u], parents_.row(u)};
  }

  /// Zero-copy CSR view of the contiguous arrivals [first, first + count)
  /// — what decide_batch consumes.  The block's offsets index into the
  /// instance-wide candidate array, so blocks at any position share the
  /// same base pointers.
  ArrivalBlock arrival_block(ElementId first, std::size_t count) const {
    OSP_ASSERT(first + count <= num_elements());
    return ArrivalBlock{first, count, capacities_.data() + first,
                        parents_.values().data(),
                        parents_.offsets().data() + first};
  }

  /// Elements of set s in arrival order (contiguous view).
  Span<ElementId> elements_of(SetId s) const { return members_.row(s); }

  /// Load σ(u).
  std::size_t load(ElementId u) const { return parents_.row_size(u); }

  /// Largest min(b(u), σ(u)) over all elements (0 if there are none): the
  /// most sets one decision can choose, so it sizes decision buffers once
  /// per run however large a capacity is.
  std::size_t max_choices() const { return max_choices_; }

  /// Weighted load σ$(u) = total weight of sets containing u.
  Weight weighted_load(ElementId u) const;

  /// Adjusted load ν(u) = σ(u)/b(u).
  double adjusted_load(ElementId u) const;

  /// Computes all aggregate statistics (O(n + m + total membership)).
  InstanceStats stats() const;

  /// Checks internal consistency; throws RequireError when violated:
  /// finite non-negative weights, capacities >= 1, parent rows sorted and
  /// distinct over known set ids, and member rows that are exactly the
  /// transpose of the parent rows (O(n + m + total membership)).  Exposed
  /// mainly for tests; from_csr() always validates.
  void validate() const;

  /// Human-readable one-line description ("m=12 n=40 kmax=4 smax=6 ...").
  std::string describe() const;

 private:
  std::vector<Weight> weights_;
  std::vector<std::size_t> set_sizes_;
  std::vector<Capacity> capacities_;   // per element
  CsrArray<SetId> parents_;            // per-element parent lists
  CsrArray<ElementId> members_;        // per-set element lists
  std::size_t max_choices_ = 0;
};

/// Incremental constructor for Instance: the arrivals go straight into one
/// parent CsrArray, which build() hands to Instance::from_csr.
class InstanceBuilder {
 public:
  /// Declares a new set with the given weight (>= 0); returns its id.
  SetId add_set(Weight w = 1.0);

  /// Declares `count` sets of weight w; returns the id of the first.
  SetId add_sets(std::size_t count, Weight w = 1.0);

  /// Appends the next arriving element.  `parents` lists the sets that
  /// contain it (need not be sorted; duplicates are rejected); capacity
  /// must be >= 1.  The row is sorted and checked before it is appended,
  /// so a rejected element leaves the builder as it was.  Returns the
  /// element id.
  ElementId add_element(std::vector<SetId> parents, Capacity capacity = 1);

  std::size_t num_sets() const { return weights_.size(); }
  std::size_t num_elements() const { return capacities_.size(); }

  /// Validates and produces the instance; the builder is left empty.
  Instance build();

 private:
  std::vector<Weight> weights_;
  std::vector<Capacity> capacities_;  // per element
  CsrArray<SetId> parents_;           // per-element parent rows, sorted
};

}  // namespace osp
