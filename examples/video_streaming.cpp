// Video streaming through a bottleneck router — the paper's motivating
// scenario end to end.
//
//   $ ./video_streaming [num_streams] [buffer]
//
// Generates a GOP-structured multi-stream video workload, pushes it
// through the router simulator under several drop policies, and reports
// how much frame value each policy delivers.  It then runs the
// buffered-router extension (the paper's open problem 2) on the same
// shape through the experiment API's ranker grid (api::Session).  A bad
// argument, like any other error, prints "error: <message>" and exits 1.
#include <exception>
#include <iostream>

#include "algos/baselines.hpp"
#include "api/scenario.hpp"
#include "api/session.hpp"
#include "core/rand_pr.hpp"
#include "gen/video.hpp"
#include "net/router_sim.hpp"
#include "stats/table.hpp"

int main(int argc, char** argv) try {
  using namespace osp;
  const std::size_t streams =
      argc > 1 ? api::parse_size("argument num_streams", argv[1]) : 10;
  const std::size_t buffer =
      argc > 2 ? api::parse_size("argument buffer", argv[2]) : 4;

  VideoParams params;
  params.num_streams = streams;
  params.frames_per_stream = 30;
  Rng rng(2024);
  VideoWorkload vw = make_video_workload(params, rng);

  std::cout << "Workload: " << vw.schedule.frames.size() << " frames, "
            << vw.schedule.total_packets() << " packets over "
            << vw.schedule.horizon << " slots; max burst "
            << vw.schedule.max_burst() << " packets/slot\n\n";

  std::cout << "-- unbuffered router (the paper's model) --\n";
  Table table({"policy", "frames delivered", "value delivered", "goodput"});
  auto report = [&](OnlineAlgorithm& alg) {
    RouterStats st = simulate_router(vw.schedule, alg, 1);
    table.row({alg.name(), fmt(st.frames_delivered),
               fmt(st.value_delivered, 1), fmt(st.goodput(), 3)});
  };
  RandPr randpr{Rng(1)};
  report(randpr);
  GreedyFirst drop_tail;   // serves the first-listed frame: drop-tail-ish
  report(drop_tail);
  GreedyMaxWeight by_weight;
  report(by_weight);
  GreedyMostProgress progress;
  report(progress);
  UniformRandomChoice random_drop{Rng(2)};
  report(random_drop);
  table.print(std::cout);

  constexpr std::size_t kDraws = 10;
  std::cout << "\n-- buffered router, buffer = " << buffer
            << " packets (open problem 2), mean of " << kDraws
            << " workload draws --\n";
  api::ScenarioSpec cell = api::scenarios().at("video");
  cell.streams = streams;
  cell.frames = params.frames_per_stream;
  cell.buffer = buffer;
  api::Session session;
  api::TableSink btable;
  session.attach(btable);
  session.run_rankers({cell}, {"randPr", "by-weight", "drop-tail"}, kDraws,
                      2024);
  btable.print(std::cout);

  std::cout << "\nTry: ./video_streaming 16 0   (heavier congestion, no "
               "buffer)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
