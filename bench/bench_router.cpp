// E7 — the networking motivation (Section 1): video frames through a
// bottleneck router.
//
// Five tables:
//  (a) unbuffered drop policies on the GOP video workload across traffic
//      intensities — randPr vs the natural deterministic heuristics,
//      in delivered frame VALUE (an I frame is worth 4 P frames);
//  (b) buffered router (open problem 2): goodput vs buffer size per
//      ranking policy;
//  (c) burstiness sweep with on/off traffic: burstier arrivals (larger
//      σmax) hurt everyone, randPr degrades most gracefully in value;
//  (d) multi-stream overload: 64 streams / ≥1M packets into a link at a
//      third of the offered load — the heavy-traffic regime the indexed
//      heap queue (net/queue.hpp) exists for;
//  (e) queue-structure throughput: slots/sec of the buffered router on
//      the largest buffered workload through both implementations of the
//      buffered link at one link — serve_sustained on the indexed-heap
//      queue ("heap") and serve_sustained_reference on a sorted vector
//      ("sort") — with a full stats-identity cross-check between them;
//  (f) sustained multi-link serving (net/serve.hpp): the event-machine
//      runtime on the sustained/* scenarios — steady state across worker
//      counts plus a saturation ramp, every run proven stats-identical
//      to the serial reference oracle before its timing is reported, and
//      a packets/sec summary gate.
//
// Sections (b), (d) and (f) are api::Session measurement kinds — the
// ranker grid (run_rankers) and the sustained run (run_sustained) — so
// each of their rows is exactly what the `osp_cli bench --ranker` or
// `--sustained` line docs/BENCHMARKS.md lists for it prints (timing
// aside); they pass the historical master seeds 200, 400 and 500.  This
// file keeps only what is its own: sections (a) and (c), the (e)
// heap-vs-sort timing and the sustained packets/sec gate.
//
// Sections (a) and (c) run their workload draws as independent trials on
// the shared batch runner: per-draw Rngs are split from the master
// serially in the seed repo's exact order, each trial generates its
// workload once and runs every policy against it (like the seed's serial
// inner loop), and aggregation walks the results in draw order — so the
// printed numbers match the original serial loops bit for bit at any
// thread count.  Policies are constructed once per worker thread and
// re-armed per draw through the reseed() API, so steady-state trials are
// allocation-free.
//
// `bench_router --smoke` runs every section (including the (e)
// cross-check) at toy sizes; scripts/check.sh drives that under
// ASan/UBSan on every repository check.
#include <cstring>
#include <iostream>

#include "api/ranker_registry.hpp"
#include "bench_common.hpp"
#include "engine/batch_runner.hpp"
#include "gen/traffic.hpp"
#include "gen/video.hpp"
#include "net/router_sim.hpp"
#include "net/serve.hpp"
#include "util/stopwatch.hpp"

namespace osp {
namespace {

void unbuffered_video(api::JsonSink& json, bool smoke) {
  std::cout << "-- (a) unbuffered router, GOP video workload --\n";
  Table table({"streams", "policy", "frames ok", "of", "value ok", "of",
               "goodput"});
  Rng master(100);
  const api::ScenarioSpec& scenario =
      api::scenarios().at("router/unbuffered");
  const int draws = smoke ? 4 : scenario.default_trials;

  // Policies come from the registry; display labels from the policies
  // themselves (the JSON rows key on them, so they must stay stable).
  const std::vector<std::string> policy_specs = {
      "randpr",       "randpr:filt",     "uniform-random",
      "greedy:first", "greedy:maxw",     "greedy:progress",
      "greedy:srpt",  "greedy:density",  "round-robin"};
  // The trial body reseeds policies[0..2] with dedicated per-draw Rng
  // streams; guard the hardwired indices against spec-list reordering
  // (a silently skipped reseed would correlate every draw).
  OSP_REQUIRE(policy_specs[0] == "randpr" &&
              policy_specs[1] == "randpr:filt" &&
              policy_specs[2] == "uniform-random");
  const std::vector<std::string> policy_names =
      bench::display_names(policy_specs);
  const std::size_t num_policies = policy_specs.size();

  // One policy set per worker, built on first use and reseeded per draw.
  struct Worker {
    std::vector<std::unique_ptr<OnlineAlgorithm>> policies;
  };
  std::vector<Worker> workers(engine::shared_runner().num_threads());

  // The streams axis is the "router/unbuffered" catalog sweep; the split
  // keys derive from the cell values, preserving the historical streams.
  for (const api::ScenarioSpec& cell : api::expand(scenario)) {
    const std::size_t streams = cell.streams;
    // Serial prep: the same master.split() call sequence as the seed loop.
    std::vector<Rng> wl_rngs, rp_rngs, rpf_rngs, ur_rngs;
    for (int d = 0; d < draws; ++d) {
      wl_rngs.push_back(master.split(streams * 100 + d));
      rp_rngs.push_back(master.split(50000 + streams * 100 + d));
      rpf_rngs.push_back(master.split(60000 + streams * 100 + d));
      ur_rngs.push_back(master.split(70000 + streams * 100 + d));
    }

    struct CellResult {
      double frames = 0, value = 0, total_frames = 0, total_value = 0;
    };
    // One trial per draw: the workload is generated once and all policies
    // run against it, exactly like the seed's serial inner loop.
    auto cells = engine::shared_runner().map<std::vector<CellResult>>(
        static_cast<std::size_t>(draws),
        [&](std::size_t d, engine::TrialContext& ctx) {
          Rng wl_rng = wl_rngs[d];
          VideoWorkload vw = api::build_video(cell, wl_rng);

          Worker& w = workers[ctx.thread_index];
          if (w.policies.empty())
            for (const std::string& spec : policy_specs)
              w.policies.push_back(api::policies().make(spec, Rng(0)));
          // Re-arm the randomized policies with this draw's streams; the
          // deterministic baselines reset themselves in start().
          w.policies[0]->reseed(rp_rngs[d]);
          w.policies[1]->reseed(rpf_rngs[d]);
          w.policies[2]->reseed(ur_rngs[d]);

          std::vector<CellResult> row;
          row.reserve(num_policies);
          for (std::size_t p = 0; p < num_policies; ++p) {
            RouterStats st = simulate_router(vw.schedule, *w.policies[p], 1);
            row.push_back(CellResult{
                static_cast<double>(st.frames_delivered), st.value_delivered,
                static_cast<double>(st.frames_total), st.value_total});
          }
          return row;
        });

    for (std::size_t p = 0; p < num_policies; ++p) {
      CellResult acc;
      for (int d = 0; d < draws; ++d) {
        const CellResult& c = cells[static_cast<std::size_t>(d)][p];
        acc.frames += c.frames;
        acc.value += c.value;
        acc.total_frames += c.total_frames;
        acc.total_value += c.total_value;
      }
      table.row({fmt(streams), policy_names[p], fmt(acc.frames / draws, 1),
                 fmt(acc.total_frames / draws, 0), fmt(acc.value / draws, 1),
                 fmt(acc.total_value / draws, 0),
                 fmt(acc.value / acc.total_value, 3)});
      json.write(
          api::Row{}
              .add("sweep", "unbuffered_video")
              .add("streams", streams)
              .add("policy", policy_names[p])
              .add("frames_ok", acc.frames / draws)
              .add("frames_total", acc.total_frames / draws)
              .add("value_ok", acc.value / draws)
              .add("value_total", acc.total_value / draws)
              .add("goodput", acc.value / acc.total_value));
    }
  }
  table.print(std::cout);
  std::cout << "Expected shape: randPr beats the memoryless randomized "
               "baselines (uniform-random, round-robin) at every load.  "
               "The dead-set-filtering variant (randPr/filt) closes most "
               "of the gap to the greedy heuristics, which win on this "
               "benign average-case traffic — but are catastrophically "
               "fragile in the worst case (see E4/E5): randPr trades a "
               "little average goodput for its k*sqrt(smax) guarantee.\n\n";
}

/// A catalog scenario's ranker grid through api::Session, into the
/// artifact and a console table (sections (b) and (d)).
void ranker_grid(api::JsonSink& json, const std::string& scenario_name,
                 const std::vector<std::string>& rankers,
                 std::uint64_t seed) {
  const api::ScenarioSpec& scenario = api::scenarios().at(scenario_name);
  api::Session session;
  api::TableSink table;
  session.attach(json);
  session.attach(table);
  session.run_rankers(api::expand(scenario), rankers,
                      static_cast<std::size_t>(scenario.default_trials),
                      seed);
  table.print(std::cout);
}

void buffered_sweep(api::JsonSink& json, bool smoke) {
  std::cout << "-- (b) buffered router (open problem 2) --\n";
  // Every registered ranker competes over the scenario's buffer ladder.
  ranker_grid(json, smoke ? "router/buffered-smoke" : "router/buffered",
              api::rankers().names(), 200);
  std::cout << "Expected shape: goodput rises with buffer size for every "
               "policy; the policy gap narrows as buffering absorbs "
               "bursts (the effect the paper leaves open).\n\n";
}

void burstiness_sweep(api::JsonSink& json, bool smoke) {
  std::cout << "-- (c) burstiness sweep (on/off traffic, frames of 3 "
               "packets) --\n";
  Table table({"burst profile", "smax", "policy", "value ok", "of",
               "goodput"});
  Rng master(300);
  const int draws = smoke ? 4 : 25;
  const std::vector<std::string> policy_specs = {"randpr", "greedy:progress",
                                                 "greedy:first"};
  // policies[0] is reseeded per draw below; guard the hardwired index.
  OSP_REQUIRE(policy_specs[0] == "randpr");
  const std::vector<std::string> policy_names =
      bench::display_names(policy_specs);
  const std::size_t num_policies = policy_specs.size();

  struct Worker {
    std::vector<std::unique_ptr<OnlineAlgorithm>> policies;
  };
  std::vector<Worker> workers(engine::shared_runner().num_threads());

  struct Profile {
    std::string name;
    double p_on_off, p_off_on, rate_on, rate_off;
  };
  for (const Profile& prof :
       {Profile{"mild (poissonish)", 0.5, 0.5, 1.5, 1.5},
        Profile{"moderate", 0.3, 0.3, 3.0, 0.5},
        Profile{"savage", 0.15, 0.1, 6.0, 0.1}}) {
    std::vector<Rng> wl_rngs, rp_rngs;
    for (int d = 0; d < draws; ++d) {
      wl_rngs.push_back(master.split(d * 17 + static_cast<std::uint64_t>(
                                                  prof.rate_on * 10)));
      rp_rngs.push_back(master.split(110000 + d));
    }

    struct DrawResult {
      double smax = 0;
      std::vector<double> value, total;  // per policy
    };
    auto cells = engine::shared_runner().map<DrawResult>(
        static_cast<std::size_t>(draws),
        [&](std::size_t d, engine::TrialContext& ctx) {
          Rng wl_rng = wl_rngs[d];
          OnOffBursts bursts(prof.p_on_off, prof.p_off_on, prof.rate_on,
                             prof.rate_off);
          FrameSchedule sched = bursty_schedule(bursts, 80, 3, wl_rng, 1.0);

          Worker& w = workers[ctx.thread_index];
          if (w.policies.empty())
            for (const std::string& spec : policy_specs)
              w.policies.push_back(api::policies().make(spec, Rng(0)));
          w.policies[0]->reseed(rp_rngs[d]);
          DrawResult row;
          row.smax = static_cast<double>(sched.max_burst());
          for (std::size_t p = 0; p < num_policies; ++p) {
            RouterStats st = simulate_router(sched, *w.policies[p], 1);
            row.value.push_back(st.value_delivered);
            row.total.push_back(st.value_total);
          }
          return row;
        });

    double smax_acc = 0;
    for (int d = 0; d < draws; ++d)
      smax_acc += cells[static_cast<std::size_t>(d)].smax;
    for (std::size_t p = 0; p < num_policies; ++p) {
      double value = 0, total = 0;
      for (int d = 0; d < draws; ++d) {
        value += cells[static_cast<std::size_t>(d)].value[p];
        total += cells[static_cast<std::size_t>(d)].total[p];
      }
      table.row({prof.name, fmt(smax_acc / draws, 1), policy_names[p],
                 fmt(value / draws, 1), fmt(total / draws, 0),
                 fmt(value / total, 3)});
      json.write(
          api::Row{}
              .add("sweep", "burstiness")
              .add("profile", prof.name)
              .add("smax", smax_acc / draws)
              .add("policy", policy_names[p])
              .add("value_ok", value / draws)
              .add("value_total", total / draws)
              .add("goodput", value / total));
    }
  }
  table.print(std::cout);
  std::cout << "Expected shape: goodput falls with burstiness for all "
               "policies (sqrt(smax) in the bound); the ordering among "
               "policies is preserved.\n\n";
}

/// The big buffered scenario of sections (d) and (e).
const api::ScenarioSpec& overload_scenario(bool smoke) {
  // Full size ("router/overload"): 64 streams × 6720 frames = 64 × 15680
  // packets ≈ 1.0M packets over ~20k slots (≈50 packets/slot against a
  // service rate of 32 — sustained ~1.6× overload), swept over a buffer
  // ladder.
  return api::scenarios().at(smoke ? "router/overload-smoke"
                                   : "router/overload");
}

void overload_sweep(api::JsonSink& json, bool smoke) {
  const api::ScenarioSpec& spec = overload_scenario(smoke);
  std::cout << "-- (d) multi-stream overload (" << spec.streams
            << " streams, service rate " << spec.service_rate << ") --\n";
  // The frame-aware rankers plus drop-tail (random-drop sits out: it
  // mirrors drop-tail under sustained overload and the full-size runs are
  // expensive).
  ranker_grid(json, spec.name, {"randPr", "by-weight", "drop-tail"}, 400);
  std::cout << "Expected shape: under sustained overload the frame-aware "
               "rankers keep whole frames alive while drop-tail sheds "
               "packets of every frame; bigger buffers widen the gap.\n\n";
}

void throughput_section(api::JsonSink& json, bool smoke) {
  const api::ScenarioSpec& spec = overload_scenario(smoke);
  const std::size_t buffer = api::expand(spec).back().buffer;
  std::cout << "-- (e) queue-structure throughput (buffer " << buffer
            << ", largest overload workload) --\n";
  Table table({"path", "slots", "packets", "seconds", "slots/sec",
               "speedup"});

  Rng wl_rng(4242);
  VideoWorkload vw = api::build_video(spec, wl_rng);
  const ServeSpec one_link{.links = 1,
                           .service_rate = spec.service_rate,
                           .buffer = buffer,
                           .drop_dead_frames = true};
  const double slots = static_cast<double>(vw.schedule.horizon);
  const double packets = static_cast<double>(vw.schedule.total_packets());
  auto ranker = api::rankers().make("randPr", Rng(7));

  // Sort path: the sorted-vector reference.
  ranker->reseed(Rng(7));
  Stopwatch clock;
  const SustainedStats sort_stats = serve_sustained_reference(
      vw.schedule, vw.stream_of, *ranker, one_link);
  const double sort_s = clock.seconds();

  // Heap path: the runtime on the indexed-heap PacketQueue.
  ranker->reseed(Rng(7));
  clock.restart();
  const SustainedStats heap_stats =
      serve_sustained(vw.schedule, vw.stream_of, *ranker, one_link);
  const double heap_s = clock.seconds();
  // Decision-identity cross-check: the two paths must agree on every
  // counter before their timings mean anything.
  OSP_REQUIRE(heap_stats == sort_stats);

  const double sort_rate = slots / sort_s;
  const double heap_rate = slots / heap_s;
  const double speedup = sort_s / heap_s;
  table.row({"sort", fmt(slots, 0), fmt(packets, 0), fmt(sort_s, 3),
             fmt(sort_rate, 0), "1.0"});
  table.row({"heap", fmt(slots, 0), fmt(packets, 0), fmt(heap_s, 3),
             fmt(heap_rate, 0), fmt(speedup, 1)});
  table.print(std::cout);
  for (const char* path : {"sort", "heap"}) {
    const bool heap = std::strcmp(path, "heap") == 0;
    json.write(
          api::Row{}
              .add("sweep", "throughput")
              .add("path", path)
              .add("buffer", buffer)
              .add("slots", slots)
              .add("packets", packets)
              .add("seconds", heap ? heap_s : sort_s)
              .add("slots_per_sec", heap ? heap_rate : sort_rate)
              .add("speedup_vs_sort", heap ? speedup : 1.0)
              .add("cross_check", "pass"));
  }
  std::cout << "Cross-check: heap and sort paths decision-identical.  "
            << "Gate (heap >= 3x sort on the largest buffered sweep): "
            << (speedup >= 3.0 ? "MET" : "NOT MET") << " (" << fmt(speedup, 1)
            << "x)"
            << (smoke ? " — gate is judged on the full-size run; smoke "
                        "queues are too small for the asymptotic gap"
                      : "")
            << ".\n";
}

// Floor for the sustained packets/sec gate, mirrored by
// scripts/check_bench_json.py (the validator's copy is the source of
// truth); sized well below the reference-container measurement so
// scheduler noise cannot flap the gate while a real runtime regression
// still trips it.  Judged on the full-size run: smoke workloads are far
// too small for steady-state throughput.
constexpr double kSustainedMinPacketsPerSec = 2.0e6;

void sustained_section(api::JsonSink& json, bool smoke) {
  std::cout << "-- (f) sustained multi-link serving runtime --\n";
  api::Session session;
  api::TableSink table;
  session.attach(json);
  session.attach(table);

  // (f1) steady state: one workload draw, randPr and drop-tail, each at
  // several worker counts.  Every run is stats-identical to the serial
  // reference oracle before its timing means anything (the trace
  // identity half of the contract lives in test_serve.cpp).
  const api::ScenarioSpec& steady = api::scenarios().at(
      smoke ? "sustained/steady-smoke" : "sustained/steady");
  const std::vector<api::Row> steady_rows = session.run_sustained(
      api::expand(steady), {"randPr", "drop-tail"},
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4},
      500);
  // (f2) saturation ramp: service rate rising through the knee, workers
  // fixed.
  session.run_sustained(
      api::expand(api::scenarios().at(smoke ? "sustained/ramp-smoke"
                                            : "sustained/ramp")),
      {"randPr"}, {2}, 500);
  table.print(std::cout);

  double best_pps = 0.0;
  std::uint64_t best_workers = 1;
  for (const api::Row& row : steady_rows) {
    const double pps = std::get<double>(row.at("packets_per_sec"));
    if (std::get<std::string>(row.at("ranker")) == "randPr" &&
        pps > best_pps) {
      best_pps = pps;
      best_workers = std::get<std::uint64_t>(row.at("workers"));
    }
  }
  json.write(api::Row{}
                 .add("sweep", "sustained_summary")
                 .add("label", steady.name)
                 .add("ranker", "randPr")
                 .add("workers", best_workers)
                 .add("packets_per_sec", best_pps)
                 .add("min_packets_per_sec", kSustainedMinPacketsPerSec)
                 .add("gate", best_pps >= kSustainedMinPacketsPerSec
                                  ? "MET"
                                  : "NOT MET"));
  std::cout << "Cross-check: every sustained run stats-identical to the "
               "serial reference.  Gate (randPr steady >= "
            << fmt(kSustainedMinPacketsPerSec, 0) << " packets/sec): "
            << (best_pps >= kSustainedMinPacketsPerSec ? "MET" : "NOT MET")
            << " (" << fmt(best_pps, 0) << " at workers=" << best_workers
            << ")"
            << (smoke ? " — gate is judged on the full-size run; smoke "
                        "workloads are too small for steady state"
                      : "")
            << ".\n";
}

}  // namespace
}  // namespace osp

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  osp::bench::banner(
      "E7 / Section 1 motivation (bottleneck router, video frames)",
      std::string("Frame-aware random priorities vs classic drop heuristics "
                  "on the simulated router; the buffering extension runs on "
                  "the indexed-heap PacketQueue.  All trials run on the "
                  "shared batch runner.") +
          (smoke ? "  [--smoke: toy sizes]" : ""));
  // Smoke runs write a separate artifact so a toy-size run can never
  // overwrite the committed full-size BENCH_router.json.
  osp::api::JsonSink json(smoke ? "router_smoke" : "router",
                          osp::bench::session().threads());
  osp::unbuffered_video(json, smoke);
  osp::buffered_sweep(json, smoke);
  osp::burstiness_sweep(json, smoke);
  osp::overload_sweep(json, smoke);
  osp::throughput_section(json, smoke);
  osp::sustained_section(json, smoke);
  return 0;
}
