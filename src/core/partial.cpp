#include "core/partial.hpp"

#include "core/game.hpp"
#include "util/require.hpp"

namespace osp {

Weight partial_value(Weight weight, std::size_t size, std::size_t received,
                     const PartialCreditRule& rule) {
  OSP_REQUIRE(received <= size);
  if (size == 0) return weight;  // vacuous completion
  std::size_t misses = size - received;
  if (misses > rule.max_misses) return 0;
  if (!rule.prorated) return weight;
  return weight * static_cast<double>(received) /
         static_cast<double>(size);
}

PartialOutcome play_partial(const Instance& inst, OnlineAlgorithm& alg,
                            const PartialCreditRule& rule) {
  // The block engine plays the game under the classic rules and leaves
  // each set's received-element count in scratch.got; only the scoring
  // differs.
  PlayScratch scratch;
  play_flat_blocks(inst, alg, scratch);
  PartialOutcome out;
  out.received.assign(scratch.got.begin(), scratch.got.end());
  for (SetId s = 0; s < inst.num_sets(); ++s) {
    Weight v =
        partial_value(inst.weight(s), inst.set_size(s), out.received[s], rule);
    if (v > 0) {
      out.credited.push_back(s);
      out.benefit += v;
    }
  }
  return out;
}

}  // namespace osp
