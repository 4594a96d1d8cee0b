#include "net/pipeline.hpp"

#include <map>

#include "core/game.hpp"
#include "util/require.hpp"

namespace osp {

PipelineStats simulate_pipeline(const MultiHopWorkload& workload,
                                std::size_t num_switches,
                                const SwitchPolicyFactory& make_policy,
                                Capacity link_capacity) {
  OSP_REQUIRE(num_switches >= 1);
  OSP_REQUIRE(link_capacity >= 1);
  const Instance& inst = workload.instance;
  const std::size_t num_packets = inst.num_sets();
  OSP_REQUIRE(workload.inject_time.size() == num_packets);

  // Packet metadata is global knowledge (ids travel in headers).
  std::vector<SetMeta> metas(num_packets);
  for (SetId p = 0; p < num_packets; ++p)
    metas[p] = SetMeta{inst.weight(p), inst.set_size(p)};

  // One policy per switch, each playing its own game: the switch's
  // engine numbers its arrivals and checks every answer against the rules.
  std::vector<std::unique_ptr<OnlineAlgorithm>> policies;
  std::vector<GameEngine> switches;
  for (std::size_t h = 0; h < num_switches; ++h) {
    policies.push_back(make_policy(h));
    OSP_REQUIRE(policies.back() != nullptr);
    switches.emplace_back(metas, *policies.back());
  }

  // alive[p]: has packet p won every hop so far (at the end: every hop of
  // its route, i.e. it was delivered).
  std::vector<bool> alive(num_packets, true);

  // Group packets by (time, hop); sweep in global clock order.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<SetId>> occupancy;
  for (SetId p = 0; p < num_packets; ++p)
    for (std::size_t i = 0; i < workload.route_len[p]; ++i)
      occupancy[{workload.inject_time[p] + i, workload.entry_hop[p] + i}]
          .push_back(p);

  std::vector<SetId> present;
  for (auto& [key, at_slot] : occupancy) {
    const std::size_t hop = key.second;
    OSP_REQUIRE(hop < num_switches);

    // A packet dropped upstream never reaches this hop: the sweep visits
    // (t-1, h-1) before (t, h), so alive[] is already up to date.
    present.clear();
    for (SetId p : at_slot)
      if (alive[p]) present.push_back(p);
    if (present.empty()) continue;

    // A packet visits each switch at most once, so it stays active in
    // that switch's game iff it won this link.
    GameEngine& sw = switches[hop];
    sw.step(present, link_capacity);
    for (SetId p : present) alive[p] = sw.is_alg_active(p);
  }

  PipelineStats stats;
  stats.packets_total = num_packets;
  for (SetId p = 0; p < num_packets; ++p) {
    stats.value_total += inst.weight(p);
    if (alive[p]) {
      ++stats.packets_delivered;
      stats.value_delivered += inst.weight(p);
    }
  }
  return stats;
}

}  // namespace osp
