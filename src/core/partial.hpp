// Partial-credit scoring — the paper's open problem 3: "What about the
// case where the set can be gained even if a few elements are missing?"
//
// Concretely this models forward error correction: a video frame shipped
// with r parity packets decodes as long as at most r packets are lost.
// A PartialCreditRule says how many misses a set tolerates and whether
// the earned value is prorated by the fraction of elements received.
#pragma once

#include <vector>

#include "core/algorithm.hpp"
#include "core/instance.hpp"

namespace osp {

/// Scoring rule for incomplete sets.
struct PartialCreditRule {
  /// A set still earns value if it missed at most this many elements.
  std::size_t max_misses = 0;
  /// If true, the earned value is w(S) * received/|S| (when within the
  /// miss budget); if false, full w(S).
  bool prorated = false;
};

/// Value earned by a set of the given size/weight that received
/// `received` of its elements, under `rule`.
Weight partial_value(Weight weight, std::size_t size, std::size_t received,
                     const PartialCreditRule& rule);

/// Outcome of a run scored with partial credit.
struct PartialOutcome {
  std::vector<std::size_t> received;  // per-set element counts
  std::vector<SetId> credited;        // sets that earned non-zero value
  Weight benefit = 0;
};

/// Runs `alg` over `inst` under the online rules of play() — it is
/// play_flat_blocks, so an answer play() rejects throws RequireError here
/// too — but scores each set's received count with partial credit.  The
/// classic game is the special case rule = {0, false}.
PartialOutcome play_partial(const Instance& inst, OnlineAlgorithm& alg,
                            const PartialCreditRule& rule);

}  // namespace osp
