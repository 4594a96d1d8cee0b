#include "api/session.hpp"

#include <algorithm>

#include "algos/offline.hpp"
#include "engine/trial.hpp"
#include "net/router_sim.hpp"
#include "net/serve.hpp"
#include "util/require.hpp"
#include "util/stopwatch.hpp"

namespace osp::api {

namespace {

// Split key of a draw's ranker stream (see the header); workload draws
// stay below it because trials are capped at 1e9.
constexpr std::uint64_t kRankerStream = 1000000000;

// Trials measure() plays per batch-runner call.
constexpr int kMeasureChunk = 1 << 16;

// Branch-and-bound nodes a ratio cell may spend proving its optimum
// (exact_optimum's default, named so the error can state it).
constexpr std::uint64_t kRatioNodeLimit = 20000000;

Row sustained_row(const ScenarioSpec& cell, const std::string& ranker,
                  std::size_t workers, const VideoWorkload& vw,
                  const SustainedStats& st, double secs) {
  const double packets = static_cast<double>(st.router.packets_arrived);
  const double starved_share =
      cell.streams > 0 ? static_cast<double>(st.streams_starved()) /
                             static_cast<double>(cell.streams)
                       : 0.0;
  return Row{}
      .add("sweep", "sustained")
      .add("scenario", cell.display_label())
      .add("ranker", ranker)
      .add("links", cell.links)
      .add("workers", workers)
      .add("streams", cell.streams)
      .add("service_rate", cell.service_rate)
      .add("buffer", cell.buffer)
      .add("window", cell.window)
      .add("slots", vw.schedule.horizon)
      .add("packets", st.router.packets_arrived)
      .add("served", st.router.packets_served)
      .add("dropped", st.router.packets_dropped)
      .add("refused_dead", st.refused_dead)
      .add("evictions", st.evictions)
      .add("cascade_drops", st.cascade_drops)
      .add("leftover", st.leftover)
      .add("goodput", st.router.goodput())
      .add("window_goodput_mean", st.window_goodput_mean())
      .add("window_goodput_min", st.window_goodput_min())
      .add("serve_p50", st.serve_latency.percentile(50))
      .add("serve_p90", st.serve_latency.percentile(90))
      .add("serve_p99", st.serve_latency.percentile(99))
      .add("drop_p50", st.drop_latency.percentile(50))
      .add("drop_p90", st.drop_latency.percentile(90))
      .add("drop_p99", st.drop_latency.percentile(99))
      .add("streams_starved", st.streams_starved())
      .add("starved_slots_max", st.starved_slots_max())
      .add("starved_share", starved_share)
      .add("seconds", secs)
      .add("packets_per_sec", secs > 0 ? packets / secs : 0.0)
      .add("cross_check", "pass");
}

}  // namespace

Session::Session() : runner_(&engine::shared_runner()) {}

Session::Session(const engine::BatchRunner& runner) : runner_(&runner) {}

void Session::attach(ResultSink& sink) { sinks_.push_back(&sink); }

void Session::emit(const Row& row) {
  for (ResultSink* sink : sinks_) sink->write(row);
}

void Session::close_sinks() {
  for (ResultSink* sink : sinks_) sink->close();
}

RunningStat Session::measure(const Instance& inst, const PolicyFactory& make,
                             Rng& master, int trials) const {
  OSP_REQUIRE_MSG(make != nullptr, "measure() needs a policy factory");
  // As run_rankers: zero trials have no mean to publish.
  OSP_REQUIRE_MSG(trials >= 1 && trials <= 1000000000,
                  "measure trials must be in [1, 1e9], got " << trials);
  // Per-trial Rngs are split serially — the seed repo's exact stream
  // order — and only the plays fan out across workers, kMeasureChunk
  // trials at a time, so memory does not grow with the trial count.
  const engine::AlgSpec alg{"", make};
  std::vector<Rng> rngs;
  RunningStat stat;
  for (int begin = 0; begin < trials; begin += kMeasureChunk) {
    rngs.clear();
    for (int t = begin; t < std::min(trials, begin + kMeasureChunk); ++t)
      rngs.push_back(master.split(static_cast<std::uint64_t>(t)));
    auto results = runner_->map<engine::TrialResult>(
        rngs.size(), [&](std::size_t i, engine::TrialContext& ctx) {
          return engine::run_play_trial_cached(inst, alg, 0, rngs[i], ctx);
        });
    for (const engine::TrialResult& r : results) stat.add(r.benefit);
  }
  return stat;
}

RunningStat Session::measure(const Instance& inst,
                             const std::string& policy_spec, Rng& master,
                             int trials) const {
  return measure(inst, policies().at(policy_spec).make, master, trials);
}

RatioCell Session::measure_ratio(const Instance& inst,
                                 const PolicyFactory& make, Rng& master,
                                 int trials) const {
  RatioCell cell;
  cell.alg = measure(inst, make, master, trials);
  const OfflineResult opt = exact_optimum(inst, kRatioNodeLimit);
  OSP_REQUIRE_MSG(opt.exact,
                  "branch and bound hit its node limit of "
                      << kRatioNodeLimit << " before proving the optimum of a "
                      << inst.num_sets() << "-set instance (best found "
                      << opt.value << "); no competitive ratio without a "
                                      "proven optimum");
  cell.opt = opt.value;
  cell.ratio = competitive_ratio(cell.opt, cell.alg.mean());
  return cell;
}

std::vector<engine::CellStats> Session::run_grid(
    const engine::GridSpec& spec,
    const std::vector<std::string>& instance_labels) {
  std::vector<engine::CellStats> cells = engine::run_grid(*runner_, spec);
  // Rows follow the canonical row-major cell order over the executed
  // slice; a sharded slice emits exactly the rows the full run would
  // emit for those cells (same labels, same aggregates), which is what
  // makes merged shards bit-identical to the unsharded artifact.
  const std::size_t num_algs = spec.algorithms.size();
  const std::size_t total_cells = spec.instances.size() * num_algs;
  const std::size_t begin = spec.cell_begin;
  const std::size_t end = spec.cell_end == engine::GridSpec::kAllCells
                              ? total_cells
                              : spec.cell_end;
  for (std::size_t c = begin; c < end; ++c) {
    const std::size_t i = c / num_algs;
    const std::size_t a = c % num_algs;
    const std::string label = i < instance_labels.size()
                                  ? instance_labels[i]
                                  : "instance" + std::to_string(i);
    const engine::CellStats& cell = cells[c - begin];
    Row row;
    row.add("instance", label)
        .add("policy", spec.algorithms[a].name)
        .add("trials", cell.benefit.count())
        .add("benefit_mean", cell.benefit.mean())
        .add("benefit_ci95", cell.benefit.ci95_halfwidth())
        .add("decisions_mean", cell.decisions.mean())
        .add("elements", cell.elements);
    emit(row);
  }
  return cells;
}

std::vector<Row> Session::run_rankers(const std::vector<ScenarioSpec>& cells,
                                      const std::vector<std::string>& rankers,
                                      std::size_t trials,
                                      std::uint64_t seed) {
  const std::vector<const RankerInfo*> infos =
      resolve_ranker_run(cells, rankers);
  OSP_REQUIRE_MSG(trials >= 1 && trials <= kRankerStream,
                  "ranker grid trials must be in [1, 1e9], got " << trials);

  // Per-worker rankers, built on first use and reseeded per draw.
  std::vector<std::vector<std::unique_ptr<FrameRanker>>> worker_rankers(
      runner_->num_threads());

  Rng master(seed);
  std::vector<Row> rows;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const ScenarioSpec& cell = cells[c];
    // Split serially up front, so the streams do not depend on the
    // worker count.
    Rng cell_rng = master.split(c);
    std::vector<Rng> wl_rngs, rk_rngs;
    wl_rngs.reserve(trials);
    rk_rngs.reserve(trials);
    for (std::size_t d = 0; d < trials; ++d) {
      wl_rngs.push_back(cell_rng.split(d));
      rk_rngs.push_back(cell_rng.split(kRankerStream + d));
    }
    // The buffered router is the serving runtime at one link.
    const ServeSpec spec{.links = 1,
                         .service_rate = cell.service_rate,
                         .buffer = cell.buffer,
                         .drop_dead_frames = true};
    auto draws = runner_->map<std::vector<RouterStats>>(
        trials, [&](std::size_t d, engine::TrialContext& ctx) {
          Rng wl_rng = wl_rngs[d];
          const VideoWorkload vw = build_video(cell, wl_rng);
          auto& made = worker_rankers[ctx.thread_index];
          if (made.empty())
            for (const RankerInfo* info : infos)
              made.push_back(info->make(Rng(0)));
          std::vector<RouterStats> stats;
          stats.reserve(infos.size());
          for (const auto& ranker : made) {
            ranker->reseed(rk_rngs[d]);
            stats.push_back(
                serve_sustained(vw.schedule, vw.stream_of, *ranker, spec)
                    .router);
            const RouterStats& st = stats.back();
            OSP_REQUIRE(st.packets_arrived ==
                        st.packets_served + st.packets_dropped);
          }
          return stats;
        });

    const double n = static_cast<double>(trials);
    for (std::size_t r = 0; r < infos.size(); ++r) {
      double goodput = 0, served = 0, dropped = 0;
      for (const std::vector<RouterStats>& draw : draws) {
        goodput += draw[r].goodput();
        served += static_cast<double>(draw[r].packets_served);
        dropped += static_cast<double>(draw[r].packets_dropped);
      }
      rows.push_back(Row{}
                         .add("sweep", "rankers")
                         .add("scenario", cell.display_label())
                         .add("ranker", infos[r]->name)
                         .add("buffer", cell.buffer)
                         .add("service_rate", cell.service_rate)
                         .add("trials", trials)
                         .add("goodput_mean", goodput / n)
                         .add("served_mean", served / n)
                         .add("dropped_mean", dropped / n));
      emit(rows.back());
    }
  }
  return rows;
}

std::vector<Row> Session::run_sustained(
    const std::vector<ScenarioSpec>& cells,
    const std::vector<std::string>& rankers,
    const std::vector<std::size_t>& workers, std::uint64_t seed) {
  const std::vector<const RankerInfo*> infos =
      resolve_ranker_run(cells, rankers);
  OSP_REQUIRE_MSG(!workers.empty(), "a sustained run needs a worker count");
  for (std::size_t w : workers)
    OSP_REQUIRE_MSG(w >= 1, "sustained worker counts must be at least 1");

  std::vector<std::unique_ptr<FrameRanker>> made;
  made.reserve(infos.size());
  for (const RankerInfo* info : infos) made.push_back(info->make(Rng(0)));

  Rng master(seed);
  std::vector<Row> rows;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const ScenarioSpec& cell = cells[c];
    Rng cell_rng = master.split(c);
    Rng wl_rng = cell_rng.split(0);
    const Rng rk_rng = cell_rng.split(kRankerStream);
    const VideoWorkload vw = build_video(cell, wl_rng);
    ServeSpec spec{.links = cell.links,
                   .service_rate = cell.service_rate,
                   .buffer = cell.buffer,
                   .work_conserving = true,
                   .drop_dead_frames = true,
                   .workers = 1,
                   .window = cell.window};
    for (std::size_t r = 0; r < infos.size(); ++r) {
      FrameRanker& ranker = *made[r];
      ranker.reseed(rk_rng);
      const SustainedStats ref =
          serve_sustained_reference(vw.schedule, vw.stream_of, ranker, spec);
      for (std::size_t w : workers) {
        spec.workers = w;
        ranker.reseed(rk_rng);
        const Stopwatch clock;
        const SustainedStats st =
            serve_sustained(vw.schedule, vw.stream_of, ranker, spec);
        const double secs = clock.seconds();
        OSP_REQUIRE_MSG(st == ref,
                        "sustained run diverged from the serial reference "
                        "(scenario '"
                            << cell.display_label() << "', ranker "
                            << infos[r]->name << ", workers " << w << ")");
        rows.push_back(
            sustained_row(cell, infos[r]->name, w, vw, st, secs));
        emit(rows.back());
      }
    }
  }
  return rows;
}

double competitive_ratio(double opt, double mean) {
  return mean > 0 ? opt / mean : opt;
}

engine::AlgSpec grid_column(const PolicyInfo& info) {
  return engine::AlgSpec{info.name, info.make};
}

std::vector<const RankerInfo*> resolve_ranker_run(
    const std::vector<ScenarioSpec>& cells,
    const std::vector<std::string>& rankers) {
  OSP_REQUIRE_MSG(!rankers.empty(),
                  "a ranker run needs ranker names; registered rankers:\n"
                      << api::rankers().render_catalog());
  std::vector<const RankerInfo*> infos;
  infos.reserve(rankers.size());
  for (const std::string& name : rankers)
    infos.push_back(&api::rankers().at(name));
  for (const ScenarioSpec& cell : cells) {
    if (cell.family == ScenarioFamily::kVideo) continue;
    std::string video;
    for (const ScenarioSpec& entry : scenarios().entries())
      if (entry.family == ScenarioFamily::kVideo) video += "\n  " + entry.name;
    OSP_REQUIRE_MSG(false, "rankers drive the buffered router and need a "
                           "video scenario; '"
                               << cell.name
                               << "' is not one.  Video scenarios:" << video);
  }
  return infos;
}

}  // namespace osp::api
