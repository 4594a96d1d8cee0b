// Distributed multi-switch pipeline.
//
// Packets traverse a path of switches, one hop per slot, no buffering;
// each switch runs its OWN policy instance and sees only its local
// contention — the distributed setting of Section 1.  With a hashed
// RandPr sharing one hash function, all switches assign identical
// priorities to a packet without any coordination (the paper's Section
// 3.1 observation); with independent randomness per switch, consistency
// breaks.  The gap is measured in bench_ablation.
#pragma once

#include <functional>
#include <memory>

#include "core/algorithm.hpp"
#include "gen/multihop.hpp"

namespace osp {

/// Aggregate counters of one pipeline run.
struct PipelineStats {
  std::size_t packets_total = 0;
  std::size_t packets_delivered = 0;  // won the link at every hop
  Weight value_total = 0;
  Weight value_delivered = 0;

  double delivery_rate() const {
    return packets_total > 0
               ? static_cast<double>(packets_delivered) /
                     static_cast<double>(packets_total)
               : 0.0;
  }
};

/// Creates the policy instance for one switch (switch id passed in, so a
/// factory can share state — e.g. one hash function — across switches).
using SwitchPolicyFactory =
    std::function<std::unique_ptr<OnlineAlgorithm>(std::size_t switch_id)>;

/// Runs the workload through the pipeline.  At each (time, hop) pair the
/// packets present compete for `link_capacity` slots, decided by that
/// switch's policy; losers are dropped on the spot.  Each switch plays its
/// own osp game through a GameEngine (core/game.hpp), whose step() checks
/// every answer against the rules: naming a packet that is not at the hop,
/// or one packet twice, throws RequireError.
PipelineStats simulate_pipeline(const MultiHopWorkload& workload,
                                std::size_t num_switches,
                                const SwitchPolicyFactory& make_policy,
                                Capacity link_capacity = 1);

}  // namespace osp
