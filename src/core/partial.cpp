#include "core/partial.hpp"

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
  std::vector<SetMeta> metas(inst.num_sets());
  for (SetId s = 0; s < inst.num_sets(); ++s)
    metas[s] = SetMeta{inst.weight(s), inst.set_size(s)};
  alg.start(metas);

  PartialOutcome out;
  out.received.assign(inst.num_sets(), 0);
  // Reused buffer: choose() takes a vector, but re-materializing the
  // CSR row must not allocate per arrival.
  std::vector<SetId> parents;
  for (ElementId u = 0; u < inst.num_elements(); ++u) {
    const ArrivalView a = inst.arrival(u);
    parents.assign(a.parents.begin(), a.parents.end());
    std::vector<SetId> chosen = choose(alg, u, a.capacity, parents);
    for (SetId s : chosen) {
      OSP_REQUIRE(s < inst.num_sets());
      ++out.received[s];
    }
  }
  for (SetId s = 0; s < inst.num_sets(); ++s) {
    OSP_REQUIRE_MSG(out.received[s] <= inst.set_size(s),
                    "algorithm credited set " << s
                                              << " beyond its size");
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
