#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "api/policy_registry.hpp"
#include "api/ranker_registry.hpp"
#include "api/scenario.hpp"
#include "api/session.hpp"
#include "core/game.hpp"
#include "core/rand_pr.hpp"
#include "engine/batch_runner.hpp"
#include "engine/trial.hpp"
#include "gen/video.hpp"
#include "host.hpp"
#include "net/serve.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace api = osp::api;
namespace engine = osp::engine;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double sum_of(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Word-wise FNV-style fingerprint of what an operation decided.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    h_ = (h_ ^ v) * 1099511628211ULL;
    h_ ^= h_ >> 29;
    return *this;
  }
  Digest& add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::uint64_t digest_of(const osp::Instance& inst) {
  Digest d;
  d.add(std::uint64_t{inst.num_sets()}).add(std::uint64_t{inst.num_elements()});
  for (osp::Weight w : inst.weights()) d.add(w);
  const osp::ArrivalBlock all = inst.arrival_block(0, inst.num_elements());
  for (std::size_t i = 0; i < all.count; ++i)
    d.add(std::uint64_t{all.capacity(i)});
  const std::size_t end = all.count ? all.offsets[all.count] : 0;
  for (std::size_t j = 0; j < end; ++j) d.add(std::uint64_t{all.candidates[j]});
  return d.value();
}

std::uint64_t digest_of(const osp::Outcome& out) {
  Digest d;
  d.add(out.benefit).add(std::uint64_t{out.decisions});
  for (osp::SetId s : out.completed) d.add(std::uint64_t{s});
  return d.value();
}

std::uint64_t digest_of(const osp::SustainedStats& st) {
  Digest d;
  d.add(std::uint64_t{st.router.packets_arrived})
      .add(std::uint64_t{st.router.packets_served})
      .add(std::uint64_t{st.router.packets_dropped})
      .add(std::uint64_t{st.router.frames_delivered})
      .add(st.router.value_delivered)
      .add(std::uint64_t{st.refused_dead})
      .add(std::uint64_t{st.evictions})
      .add(std::uint64_t{st.cascade_drops})
      .add(std::uint64_t{st.leftover})
      .add(std::uint64_t{st.serve_latency.percentile(99)})
      .add(std::uint64_t{st.drop_latency.percentile(99)});
  return d.value();
}

bool same_outcome(const osp::Outcome& a, const osp::Outcome& b) {
  return a.benefit == b.benefit && a.decisions == b.decisions &&
         a.completed == b.completed;
}

/// What the operations of one round did.
struct RoundLog {
  std::vector<double> op_seconds;
  std::vector<std::uint64_t> op_digest;  // one fingerprint per operation
  double work = 0;                       // elements (packets) decided
  std::vector<std::string> errors;       // one per operation that threw
};

/// Times `call` as one operation; `summarize` turns its result into the
/// operation's (work, fingerprint) outside the timed region.
template <class Call, class Summarize>
void run_op(Tracer* tracer, RoundLog& log, Call&& call,
            Summarize&& summarize) {
  if (tracer) tracer->begin_op();
  const auto t0 = Clock::now();
  try {
    auto result = call();
    log.op_seconds.push_back(seconds_since(t0));
    const std::pair<double, std::uint64_t> s = summarize(result);
    log.work += s.first;
    log.op_digest.push_back(s.second);
  } catch (const std::exception& e) {
    // A throw from `call` leaves the operation untimed; time it here.
    if (log.op_seconds.size() == log.op_digest.size())
      log.op_seconds.push_back(seconds_since(t0));
    log.op_digest.push_back(0);
    log.errors.push_back(e.what());
  }
}

/// Serving-layer figures of serve-overload's first round.
struct NetFigures {
  double queue_ops = 0;
  double evicted_share = 0;
  double cascade_share = 0;
  double refused_share = 0;
  double served_share = 0;
  double slots_p99 = 0;
  double serve_rss_mb = 0;  // median over traced calls
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* op_kind() const = 0;
  /// Builds the inputs from the seed (the timed set-up).
  virtual void setup(Tracer* tracer) = 0;
  /// Fingerprint of the inputs the last setup() built.
  virtual std::uint64_t input_digest() const = 0;
  virtual void round(Tracer* tracer, RoundLog& log, bool first) = 0;
  /// Delivered value share of the first round.
  virtual double goodput() const = 0;
  /// Runs the oracles; returns how many checked operations disagreed.
  virtual std::uint64_t check(std::vector<std::string>& errors) = 0;
  virtual NetFigures net() const { return {}; }
};

// ------------------------------------------------------------ engine-overload

class EngineOverload final : public Workload {
 public:
  static constexpr std::size_t kTrials = 20;  // trials per round

  explicit EngineOverload(std::uint64_t seed) {
    osp::Rng master(seed);
    gen_rng_ = master.split(1);
    osp::Rng trials = master.split(2);
    for (std::size_t t = 0; t < kTrials; ++t)
      trial_rngs_.push_back(trials.split(t));
    samples_ = {seed % kTrials, (seed / kTrials + kTrials / 2) % kTrials};
    if (samples_[1] == samples_[0]) samples_[1] = (samples_[0] + 1) % kTrials;
  }

  const char* op_kind() const override { return "trial"; }

  void setup(Tracer* tracer) override {
    inst_.reset();
    std::optional<api::ScenarioSpec> spec;
    {
      ScopedSpan span(tracer, SpanName::kApiSetup);
      for (api::ScenarioSpec& cell : api::engine_shapes())
        if (cell.display_label() == "overload/256k") spec = std::move(cell);
    }
    if (!spec) throw std::runtime_error("engine/ladder has no overload/256k");
    osp::Rng rng = gen_rng_;
    ScopedSpan span(tracer, SpanName::kGenInstance);
    inst_.emplace(api::build_instance(*spec, rng));
  }

  std::uint64_t input_digest() const override { return digest_of(*inst_); }

  void round(Tracer* tracer, RoundLog& log, bool first) override {
    for (std::size_t t = 0; t < kTrials; ++t) {
      run_op(
          tracer, log,
          [&] {
            if (tracer == nullptr) {
              osp::RandPr alg(trial_rngs_[t]);
              return osp::play_flat_blocks(*inst_, alg, scratch_);
            }
            TracedPolicy alg(std::make_unique<osp::RandPr>(trial_rngs_[t]),
                             *tracer);
            ScopedSpan span(tracer, SpanName::kEnginePlay);
            return osp::play_flat_blocks(*inst_, alg, scratch_);
          },
          [&](const osp::Outcome& out) {
            if (first) {
              benefit_ += out.benefit;
              for (std::size_t k = 0; k < samples_.size(); ++k)
                if (samples_[k] == t) sampled_[k] = out;
            }
            return std::make_pair(static_cast<double>(inst_->num_elements()),
                                  digest_of(out));
          });
    }
  }

  double goodput() const override {
    const auto& w = inst_->weights();
    const double total = std::accumulate(w.begin(), w.end(), 0.0);
    return ratio(benefit_, total * static_cast<double>(kTrials));
  }

  // Sampled trials replayed on the flat engine and on the seed reference
  // engine with the same Rng must match the block engine's outcome.
  std::uint64_t check(std::vector<std::string>& errors) override {
    std::uint64_t bad = 0;
    for (std::size_t k = 0; k < samples_.size(); ++k) {
      const std::size_t t = samples_[k];
      osp::RandPr flat_alg(trial_rngs_[t]);
      const osp::Outcome flat = osp::play_flat(*inst_, flat_alg, scratch_);
      osp::RandPr ref_alg(trial_rngs_[t]);
      const osp::Outcome ref = osp::play_reference(*inst_, ref_alg);
      if (!same_outcome(flat, sampled_[k]) || !same_outcome(ref, sampled_[k])) {
        ++bad;
        errors.push_back("trial " + std::to_string(t) +
                         " disagrees with play_flat/play_reference");
      }
    }
    return bad;
  }

 private:
  osp::Rng gen_rng_;
  std::vector<osp::Rng> trial_rngs_;
  std::vector<std::size_t> samples_;
  osp::Outcome sampled_[2];
  std::optional<osp::Instance> inst_;
  osp::PlayScratch scratch_;
  double benefit_ = 0;
};

// ----------------------------------------------------------------- grid-small

class GridSmall final : public Workload {
 public:
  explicit GridSmall(std::uint64_t seed)
      : runner_(engine::BatchOptions{1}), session_(runner_), seed_(seed) {
    osp::Rng master(seed);
    instance_seed_ = master.split(1)();
    master_seed_ = master.split(2)();
  }

  const char* op_kind() const override { return "cell"; }

  void setup(Tracer* tracer) override {
    std::vector<api::ScenarioSpec> cells;
    int trials = 1;
    {
      ScopedSpan span(tracer, SpanName::kApiSetup);
      for (const char* name : {"uniform/theorem5", "capacity/random"}) {
        const api::ScenarioSpec& spec = api::scenarios().at(name);
        trials = std::max(trials, spec.default_trials);
        for (api::ScenarioSpec& cell : api::expand(spec))
          cells.push_back(std::move(cell));
      }
    }
    instances_.clear();
    labels_.clear();
    for (const api::ScenarioSpec& cell : cells) {
      osp::Rng rng(instance_seed_);
      ScopedSpan span(tracer, SpanName::kGenInstance);
      instances_.push_back(api::build_instance(cell, rng));
      labels_.push_back(cell.display_label());
    }
    ScopedSpan span(tracer, SpanName::kApiSetup);
    grid_ = engine::GridSpec{};
    for (const osp::Instance& inst : instances_)
      grid_.instances.push_back(&inst);
    for (const api::PolicyInfo& info : api::policies().entries())
      grid_.algorithms.push_back(api::grid_column(info));
    grid_.trials = trials;
    grid_.master_seed = master_seed_;
    traced_grid_.reset();
  }

  std::uint64_t input_digest() const override {
    Digest d;
    for (const osp::Instance& inst : instances_) d.add(digest_of(inst));
    d.add(std::uint64_t{grid_.algorithms.size()})
        .add(std::uint64_t(grid_.trials));
    return d.value();
  }

  void round(Tracer* tracer, RoundLog& log, bool first) override {
    engine::GridSpec& grid = tracer ? traced_grid(*tracer) : grid_;
    const std::size_t num_algs = grid.algorithms.size();
    const std::size_t cells = grid.instances.size() * num_algs;
    for (std::size_t c = 0; c < cells; ++c) {
      grid.cell_begin = c;
      grid.cell_end = c + 1;
      run_op(
          tracer, log,
          [&] {
            ScopedSpan span(tracer, SpanName::kApiRunGrid);
            return session_.run_grid(grid, labels_);
          },
          [&](const std::vector<engine::CellStats>& out) {
            const engine::CellStats& cell = out.at(0);
            if (first) {
              first_cells_.push_back(cell);
              const auto& w = instances_[c / num_algs].weights();
              goodput_sum_ += ratio(cell.benefit.mean(),
                                    std::accumulate(w.begin(), w.end(), 0.0));
            }
            return std::make_pair(
                static_cast<double>(cell.elements),
                Digest()
                    .add(cell.benefit.sum())
                    .add(cell.decisions.sum())
                    .add(std::uint64_t{cell.benefit.count()})
                    .value());
          });
    }
  }

  double goodput() const override {
    return ratio(goodput_sum_, static_cast<double>(first_cells_.size()));
  }

  // One sampled cell per policy, replayed trial by trial through the seed
  // reference engine with the grid's own per-trial seeds.
  std::uint64_t check(std::vector<std::string>& errors) override {
    const std::vector<api::PolicyInfo>& infos = api::policies().entries();
    const std::size_t num_algs = grid_.algorithms.size();
    std::uint64_t bad = 0;
    for (std::size_t a = 0; a < num_algs && a < infos.size(); ++a) {
      const std::size_t i = (seed_ + a) % instances_.size();
      const std::size_t c = i * num_algs + a;
      if (c >= first_cells_.size()) continue;
      osp::RunningStat benefit, decisions;
      for (int t = 0; t < grid_.trials; ++t) {
        auto policy = infos[a].make(osp::Rng(engine::trial_seed(
            master_seed_, i, a, static_cast<std::uint64_t>(t))));
        const osp::Outcome out = osp::play_reference(instances_[i], *policy);
        benefit.add(out.benefit);
        decisions.add(static_cast<double>(out.decisions));
      }
      const engine::CellStats& got = first_cells_[c];
      if (benefit.sum() != got.benefit.sum() ||
          benefit.count() != got.benefit.count() ||
          decisions.sum() != got.decisions.sum()) {
        ++bad;
        errors.push_back("cell " + labels_[i] + " x " + infos[a].name +
                         " disagrees with play_reference");
      }
    }
    return bad;
  }

 private:
  /// The grid with every column's factory wrapped: each build is an
  /// api.policy_build span and yields a TracedPolicy.
  engine::GridSpec& traced_grid(Tracer& tracer) {
    if (!traced_grid_) {
      traced_grid_ = grid_;
      for (engine::AlgSpec& col : traced_grid_->algorithms) {
        col.make = [make = col.make, &tracer](osp::Rng rng)
            -> std::unique_ptr<osp::OnlineAlgorithm> {
          ScopedSpan span(&tracer, SpanName::kApiPolicyBuild);
          return std::make_unique<TracedPolicy>(make(rng), tracer);
        };
      }
    }
    return *traced_grid_;
  }

  engine::BatchRunner runner_;
  api::Session session_;
  std::uint64_t seed_;
  std::uint64_t instance_seed_ = 0;
  std::uint64_t master_seed_ = 0;
  std::vector<osp::Instance> instances_;
  std::vector<std::string> labels_;
  engine::GridSpec grid_;
  std::optional<engine::GridSpec> traced_grid_;
  std::vector<engine::CellStats> first_cells_;
  double goodput_sum_ = 0;
};

// ------------------------------------------------------------- serve-overload

class ServeOverload final : public Workload {
 public:
  explicit ServeOverload(std::uint64_t seed) {
    osp::Rng master(seed);
    wl_rng_ = master.split(1);
    rk_rng_ = master.split(2);
  }

  const char* op_kind() const override { return "serve call"; }

  void setup(Tracer* tracer) override {
    vw_.reset();
    api::ScenarioSpec spec;
    {
      ScopedSpan span(tracer, SpanName::kApiSetup);
      spec = api::scenarios().at("sustained/steady");
      ranker_ = api::rankers().make("randPr", rk_rng_);
    }
    osp::Rng rng = wl_rng_;
    {
      ScopedSpan span(tracer, SpanName::kGenSchedule);
      vw_.emplace(api::build_video(spec, rng));
    }
    serve_spec_.links = spec.links;
    serve_spec_.service_rate = spec.service_rate;
    serve_spec_.buffer = spec.buffer;
    serve_spec_.work_conserving = true;
    serve_spec_.drop_dead_frames = true;
    serve_spec_.workers = 1;
    serve_spec_.window = spec.window;
  }

  std::uint64_t input_digest() const override {
    Digest d;
    for (const osp::Frame& f : vw_->schedule.frames) {
      d.add(f.weight).add(std::uint64_t{f.packet_slots.size()});
      for (std::size_t slot : f.packet_slots) d.add(std::uint64_t{slot});
    }
    for (std::size_t s : vw_->stream_of) d.add(std::uint64_t{s});
    return d.value();
  }

  void round(Tracer* tracer, RoundLog& log, bool /*first*/) override {
    ranker_->reseed(rk_rng_);
    std::optional<TracedRanker> traced;
    if (tracer) traced.emplace(*ranker_, *tracer);
    osp::FrameRanker& ranker = tracer ? static_cast<osp::FrameRanker&>(*traced)
                                      : *ranker_;
    double rss_before = 0;
    if (tracer) {
      reset_peak_rss();
      rss_before = rss_mb();
    }
    run_op(
        tracer, log,
        [&] {
          ScopedSpan span(tracer, SpanName::kNetServe);
          return osp::serve_sustained(vw_->schedule, vw_->stream_of, ranker,
                                      serve_spec_);
        },
        [&](const osp::SustainedStats& st) {
          if (tracer) serve_rss_.push_back(peak_rss_mb() - rss_before);
          stats_.push_back(st);
          return std::make_pair(
              static_cast<double>(st.router.packets_arrived), digest_of(st));
        });
  }

  double goodput() const override {
    return stats_.empty() ? 0.0 : stats_.front().router.goodput();
  }

  // Every call's stats must equal the sorted-vector reference runtime's.
  std::uint64_t check(std::vector<std::string>& errors) override {
    ranker_->reseed(rk_rng_);
    const osp::SustainedStats ref = osp::serve_sustained_reference(
        vw_->schedule, vw_->stream_of, *ranker_, serve_spec_);
    std::uint64_t bad = 0;
    for (const osp::SustainedStats& st : stats_)
      if (st != ref) ++bad;
    if (bad > 0)
      errors.push_back(std::to_string(bad) +
                       " serve calls disagree with serve_sustained_reference");
    return bad;
  }

  NetFigures net() const override {
    NetFigures n;
    if (stats_.empty()) return n;
    const osp::SustainedStats& st = stats_.front();
    const double arrived = static_cast<double>(st.router.packets_arrived);
    const double pushes =
        static_cast<double>(st.router.packets_arrived - st.refused_dead);
    n.queue_ops = pushes + static_cast<double>(st.router.packets_served) +
                  static_cast<double>(st.evictions) +
                  static_cast<double>(st.cascade_drops);
    n.evicted_share = ratio(static_cast<double>(st.evictions), arrived);
    n.cascade_share = ratio(static_cast<double>(st.cascade_drops), arrived);
    n.refused_share = ratio(static_cast<double>(st.refused_dead), arrived);
    n.served_share =
        ratio(static_cast<double>(st.router.packets_served), arrived);
    n.slots_p99 = static_cast<double>(st.serve_latency.percentile(99));
    n.serve_rss_mb = quantile(serve_rss_, 0.5);
    return n;
  }

 private:
  osp::Rng wl_rng_;
  osp::Rng rk_rng_;
  std::optional<osp::VideoWorkload> vw_;
  std::unique_ptr<osp::FrameRanker> ranker_;
  osp::ServeSpec serve_spec_;
  std::vector<osp::SustainedStats> stats_;
  std::vector<double> serve_rss_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "engine-overload") return std::make_unique<EngineOverload>(seed);
  if (name == "grid-small") return std::make_unique<GridSmall>(seed);
  if (name == "serve-overload") return std::make_unique<ServeOverload>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// -------------------------------------------------------------- timing loop

constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 20000;
constexpr double kSetupBudgetSeconds = 1.5;
constexpr std::size_t kMaxDumpedSpans = 200000;  // about 10 MB of TSV

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

void add_layer_metrics(Report& r, const Tracer& tracer,
                       const NetFigures& net, double goodput, double setups,
                       double ops, double overhead) {
  const SpanTotals tot = tracer.totals();
  const Counters& c = tracer.counters();
  const double per_op_ms = ratio(1e3, ops);
  const double bytes = 8.0 * static_cast<double>(c.candidates) +
                       4.0 * static_cast<double>(c.choices) +
                       4.0 * static_cast<double>(c.elements +
                                                 c.decide_batch_calls);
  const double serve_self_s = ratio(tot.self(SpanName::kNetServe), ops);
  auto add = [&r](const char* name, const char* unit, double value,
                  const char* moves) {
    r.metrics.push_back({name, unit, value, moves});
  };
  add("gen.instance_s", "s", ratio(tot.total(SpanName::kGenInstance), setups),
      "setup_s");
  add("gen.schedule_s", "s", ratio(tot.total(SpanName::kGenSchedule), setups),
      "setup_s");
  add("api.policy_build_ms", "ms",
      tot.total(SpanName::kApiPolicyBuild) * per_op_ms, "op_ms_p50");
  add("core.start_ms", "ms", tot.total(SpanName::kCoreStart) * per_op_ms,
      "op_ms_p50");
  add("core.reseed_ms", "ms", tot.total(SpanName::kCoreReseed) * per_op_ms,
      "op_ms_p50");
  add("core.decide_batch_ms", "ms",
      tot.total(SpanName::kCoreDecideBatch) * per_op_ms,
      "elements_per_s, op_ms_p50");
  add("core.decide_batch_calls", "count",
      ratio(static_cast<double>(c.decide_batch_calls), ops),
      "elements_per_s, op_ms_p50");
  add("core.candidates", "count", ratio(static_cast<double>(c.candidates), ops),
      "elements_per_s, op_ms_p50");
  add("core.bytes_computed", "bytes", ratio(bytes, ops),
      "elements_per_s, op_ms_p50 (computed from counts)");
  add("core.fused_block_share", "share",
      ratio(static_cast<double>(c.fused_blocks),
            static_cast<double>(c.decide_batch_calls)),
      "explains engine.play_self_ms");
  add("engine.play_self_ms", "ms",
      (tot.self(SpanName::kEnginePlay) + tot.self(SpanName::kApiRunGrid)) *
          per_op_ms,
      "op_ms_p50, op_ms_p90");
  add("engine.policy_builds_per_trial", "count",
      ratio(static_cast<double>(c.policy_builds),
            static_cast<double>(c.starts)),
      "op_ms_p50, op_ms_p90");
  add("net.ranker_start_ms", "ms",
      tot.total(SpanName::kNetRankerStart) * per_op_ms, "elements_per_s");
  add("net.rank_calls", "count", ratio(static_cast<double>(c.rank_calls), ops),
      "elements_per_s");
  add("net.serve_self_s", "s", serve_self_s, "elements_per_s");
  add("net.queue_ops", "count", net.queue_ops, "elements_per_s");
  add("net.ns_per_queue_op", "ns", ratio(serve_self_s * 1e9, net.queue_ops),
      "elements_per_s");
  add("net.evicted_share", "share", net.evicted_share, "elements_per_s");
  add("net.cascade_share", "share", net.cascade_share, "elements_per_s");
  add("net.refused_share", "share", net.refused_share, "elements_per_s");
  add("net.served_share", "share", net.served_share, "elements_per_s");
  add("net.serve_rss_mb", "MB", net.serve_rss_mb, "peak_rss_mb");
  add("check.goodput", "share", goodput, "none: deterministic output");
  add("check.serve_slots_p99", "slots", net.slots_p99,
      "none: deterministic output");
  add("trace.overhead_share", "share", overhead,
      "traced minus untraced mean op time, over untraced");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "engine-overload", "grid-small", "serve-overload"};
  return names;
}

Report run_workload(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o.workload, o.seed);
  Report r;
  r.workload = o.workload;
  auto fail = [&r](const std::string& message) {
    ++r.failed;
    if (r.failures.size() < 5) r.failures.push_back(message);
  };

  const HostRecord host = measure_host();
  r.lines.push_back(
      "host: nproc=" + std::to_string(host.nproc) +
      " effective_parallelism=" + fmt("%.2f", host.effective_parallelism) +
      " (spin: 1 thread " + fmt("%.4f", host.spin_1_s) + " s, " +
      std::to_string(host.nproc) + " threads " + fmt("%.4f", host.spin_n_s) +
      " s); this run: 1 engine worker, 1 serving worker");
  if (!reset_peak_rss())
    r.lines.push_back("note: cannot reset VmHWM; peaks include earlier work");

  std::unique_ptr<Tracer> tracer;
  if (o.trace) tracer = std::make_unique<Tracer>();

  // Set-up, repeated: the median is setup_s, and every repeat must build
  // identical inputs.
  std::vector<double> setup_s;
  std::uint64_t input_digest = 0;
  const auto setup_t0 = Clock::now();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups &&
          seconds_since(setup_t0) < kSetupBudgetSeconds)) {
    if (tracer) tracer->begin_op();
    const auto t0 = Clock::now();
    w->setup(tracer.get());
    setup_s.push_back(seconds_since(t0));
    ++r.attempted;
    const std::uint64_t d = w->input_digest();
    if (setup_s.size() == 1)
      input_digest = d;
    else if (d != input_digest)
      fail("set-up " + std::to_string(setup_s.size()) +
           " built different inputs");
  }

  // Timed rounds until the budget is spent.  Every round runs the same
  // operations, so op_samples[i] holds operation i's untraced times across
  // rounds.  Traced runs alternate untraced and traced rounds, so both see
  // the same host conditions.
  std::vector<std::vector<double>> op_samples;
  double round_work = 0;
  double untraced_s = 0;
  double untraced_ops = 0;
  double traced_s = 0;
  double traced_ops = 0;
  std::vector<std::uint64_t> first_digests;
  std::size_t rounds = 0;
  const std::size_t min_rounds = o.trace ? 4 : 2;
  const auto timed_t0 = Clock::now();
  while (rounds < min_rounds || seconds_since(timed_t0) < o.seconds) {
    const bool traced = o.trace && rounds % 2 == 1;
    RoundLog log;
    w->round(traced ? tracer.get() : nullptr, log, rounds == 0);
    r.attempted += log.op_seconds.size();
    for (const std::string& e : log.errors) fail("operation threw: " + e);
    if (rounds == 0) {
      first_digests = log.op_digest;
    } else {
      for (std::size_t i = 0; i < log.op_digest.size(); ++i)
        if (i >= first_digests.size() || log.op_digest[i] != first_digests[i])
          fail(std::string(w->op_kind()) + " " + std::to_string(i) +
               " of round " + std::to_string(rounds) +
               " differs from round 0");
    }
    if (traced) {
      traced_s += sum_of(log.op_seconds);
      traced_ops += static_cast<double>(log.op_seconds.size());
    } else {
      if (op_samples.size() < log.op_seconds.size())
        op_samples.resize(log.op_seconds.size());
      for (std::size_t i = 0; i < log.op_seconds.size(); ++i)
        op_samples[i].push_back(log.op_seconds[i]);
      round_work = log.work;
      untraced_s += sum_of(log.op_seconds);
      untraced_ops += static_cast<double>(log.op_seconds.size());
    }
    ++rounds;
  }
  const double peak_mb = peak_rss_mb();  // before any oracle runs

  std::vector<std::string> oracle_errors;
  const std::uint64_t bad = w->check(oracle_errors);
  r.failed += bad;
  for (const std::string& e : oracle_errors)
    if (r.failures.size() < 5) r.failures.push_back(e);

  // Each operation's best time across rounds.  Other tenants of a shared
  // host slow the run in bursts of seconds (cache and memory-bandwidth
  // contention, not only preemption), which lengthens some repeats and
  // never shortens one, so the best of many repeats is the steadiest
  // estimate of the operation's own cost.
  std::vector<double> op_best;
  for (const std::vector<double>& xs : op_samples)
    op_best.push_back(*std::min_element(xs.begin(), xs.end()));
  const double goodput = w->goodput();
  const NetFigures net = w->net();
  Digest digest;
  digest.add(input_digest).add(goodput).add(net.slots_p99);
  for (std::uint64_t d : first_digests) digest.add(d);
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest.value()));

  const std::string ops_note =
      std::to_string(op_best.size()) + " " + w->op_kind() + "s x " +
      fmt("%.0f", ratio(untraced_ops, static_cast<double>(op_best.size()))) +
      " untraced rounds";
  const std::vector<Metric> e2e = {
      {"setup_s", "s", quantile(setup_s, 0.5),
       "median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"elements_per_s", "1/s", ratio(round_work, sum_of(op_best)),
       "one round's work over its operations' best times"},
      {"op_ms_p50", "ms", quantile(op_best, 0.5) * 1e3,
       "best of rounds, over " + ops_note},
      {"op_ms_p90", "ms", quantile(op_best, 0.9) * 1e3,
       "best of rounds, over " + ops_note},
      {"peak_rss_mb", "MB", peak_mb, "VmHWM before the oracles"},
  };
  r.lines.push_back("rounds=" + std::to_string(rounds) + ": " + ops_note +
                    (o.trace ? ", " + fmt("%.0f", traced_ops) + " traced ops"
                             : std::string()) +
                    "; fail_share=" +
                    fmt("%.6g", ratio(static_cast<double>(r.failed),
                                      static_cast<double>(r.attempted))) +
                    " (" + std::to_string(r.failed) + " of " +
                    std::to_string(r.attempted) + " operations)");
  r.lines.push_back("deterministic outputs: goodput=" + fmt("%.6g", goodput) +
                    " serve_slots_p99=" + fmt("%.0f", net.slots_p99) +
                    " digest=" + digest_hex + " (same seed, same values)");

  if (!o.trace) {
    r.metrics = e2e;
    return r;
  }
  // Traced run: the per-layer metrics, with this run's untraced rounds
  // shown for context.
  for (const Metric& m : e2e)
    r.lines.push_back("untraced rounds: " + m.name + "=" +
                      fmt("%.6g", m.value) + " " + m.unit + " (" + m.note +
                      ")");
  const double overhead =
      ratio(ratio(traced_s, traced_ops), ratio(untraced_s, untraced_ops)) -
      1.0;
  add_layer_metrics(r, *tracer, net, goodput,
                    static_cast<double>(setup_s.size()), traced_ops, overhead);
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string path = o.out_dir + "/spans-" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".tsv";
  if (tracer->dump(path, kMaxDumpedSpans))
    r.lines.push_back("spans: " + std::to_string(tracer->spans().size()) +
                      " written to " + path);
  else
    r.lines.push_back("spans: cannot write " + path);
  return r;
}

}  // namespace perfbench
