// Multi-hop packet scheduling — the paper's second scenario, and a live
// demonstration of the DISTRIBUTED implementation of randPr (Section 3.1):
// every switch hashes the packet id with the same shared hash function, so
// all switches agree on packet priorities without exchanging a single
// message.
//
//   $ ./multihop_routing [num_packets]
//
// A bad argument, like any other error, prints "error: <message>" and
// exits 1.
#include <exception>
#include <iostream>

#include "algos/baselines.hpp"
#include "api/scenario.hpp"
#include "core/rand_pr.hpp"
#include "gen/multihop.hpp"
#include "net/pipeline.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) try {
  using namespace osp;
  const std::size_t packets =
      argc > 1 ? api::parse_size("argument num_packets", argv[1]) : 150;

  MultiHopParams params;
  params.num_switches = 8;
  params.num_packets = packets;
  params.horizon = 18;
  params.min_route = 2;
  params.max_route = 4;
  Rng rng(7);
  MultiHopWorkload w = make_multihop_workload(params, rng);

  std::cout << "Workload: " << packets << " packets over "
            << params.num_switches
            << " switches; contended link-slots: "
            << w.instance.num_elements() << ", max contention "
            << w.instance.stats().sigma_max << "\n\n";

  Table table({"per-switch policy", "packets delivered", "rate"});

  // Distributed randPr: ONE hash function shared by all switches.
  Rng hash_rng(11);
  auto shared_hash = std::make_shared<PolynomialHash>(8, hash_rng);
  PipelineStats shared = simulate_pipeline(
      w, params.num_switches, [&](std::size_t) {
        return std::make_unique<RandPr>(
            [shared_hash](std::uint64_t id) { return shared_hash->unit(id); },
            "hashPr(shared)");
      });
  table.row({"randPr, shared hash", fmt(shared.packets_delivered),
             fmt(shared.delivery_rate(), 3)});

  // Naive randomized: each switch draws its own priorities.
  Rng indep_rng(13);
  PipelineStats indep = simulate_pipeline(
      w, params.num_switches, [&](std::size_t s) {
        return std::make_unique<RandPr>(indep_rng.split(s));
      });
  table.row({"randPr, independent per switch",
             fmt(indep.packets_delivered), fmt(indep.delivery_rate(), 3)});

  // Deterministic control.
  PipelineStats greedy = simulate_pipeline(
      w, params.num_switches,
      [](std::size_t) { return std::make_unique<GreedyFirst>(); });
  table.row({"greedy-first", fmt(greedy.packets_delivered),
             fmt(greedy.delivery_rate(), 3)});

  table.print(std::cout);
  std::cout
      << "\nThe shared-hash row should win: consistent priorities mean a "
         "packet that wins its first link keeps winning, so upstream "
         "service is never wasted on packets that die downstream.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
