// Discrete-time bottleneck-router simulator and its frame rankers.
//
// simulate_router implements the paper's model exactly: in each slot a
// burst of packets arrives, the link serves `service_rate` of them, and
// the rest are lost — so a run IS the osp game on
// FrameSchedule::to_instance, and simulate_router plays it there on the
// block engine (test_net.cpp checks it against play()).
//
// The buffered router probes the paper's open problem 2 ("the effect of
// buffers"): packets that lose the link can wait in a bounded buffer.  It
// is the sustained serving runtime at one link — serve_sustained
// (net/serve.hpp) with ServeSpec{.links = 1, ...}, whose
// SustainedStats::router holds the counters below — so its rules
// (arrivals, serve, trim, dead-frame refusal and eviction) are written
// once, with serve_sustained_reference as their oracle.  Its decisions
// are made by a FrameRanker — a per-frame priority oracle; randPr's
// persistent R_w priorities fit this interface directly, which is itself
// evidence for the algorithm's practicality.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "gen/schedule.hpp"
#include "util/rng.hpp"

namespace osp {

/// Aggregate counters of one router run.
struct RouterStats {
  std::size_t packets_arrived = 0;
  std::size_t packets_served = 0;
  std::size_t packets_dropped = 0;
  std::size_t frames_total = 0;
  std::size_t frames_delivered = 0;  // all packets served
  Weight value_total = 0;
  Weight value_delivered = 0;

  /// Fraction of frame value delivered intact.
  double goodput() const {
    return value_total > 0 ? value_delivered / value_total : 0.0;
  }
};

/// Unbuffered router: `alg` decides which arriving packets to serve in
/// each slot (at most `service_rate`), all others are lost.  Runs
/// play_flat_blocks on schedule.to_instance(service_rate) — a slot is an
/// element, its frames the candidates — so the engine enforces the game's
/// rules on every slot (an answer naming a frame without a packet there,
/// or one frame twice, throws RequireError), and a whole run costs a
/// handful of decide_batch() calls.  The frame counters are the engine's
/// per-set counts (PlayScratch::got) read through tally_frames.
RouterStats simulate_router(const FrameSchedule& schedule,
                            OnlineAlgorithm& alg, Capacity service_rate = 1);

/// Per-frame priority oracle for the buffered router.  Shipped rankers are
/// listed in api::rankers() (api/ranker_registry.cpp), which is what the
/// router benches and `osp_cli bench --ranker` enumerate.
class FrameRanker {
 public:
  virtual ~FrameRanker() = default;
  virtual std::string name() const = 0;
  /// Announces the frames (weight + packet count), once per run.
  virtual void start(const std::vector<SetMeta>& frames) = 0;
  /// Priority of a frame; higher survives congestion longer.
  virtual double rank(SetId frame) const = 0;
  /// Re-arms the ranker's randomness for a fresh trial without
  /// reallocating: reseed(rng) followed by start(frames) must rank
  /// exactly like a freshly constructed ranker given the same rng.
  /// Default: no-op (deterministic rankers).
  virtual void reseed(Rng /*rng*/) {}
};

/// randPr as a ranker: persistent R_w priorities per frame.
class RandPrRanker final : public FrameRanker {
 public:
  explicit RandPrRanker(Rng rng) : rng_(rng) {}
  std::string name() const override { return "randPr"; }
  void start(const std::vector<SetMeta>& frames) override;
  double rank(SetId frame) const override { return ranks_[frame]; }
  void reseed(Rng rng) override { rng_ = rng; }

 private:
  Rng rng_;
  std::vector<double> ranks_;
};

/// Ranks frames by their declared weight (deterministic "protect the
/// I frames" heuristic).
class WeightRanker final : public FrameRanker {
 public:
  std::string name() const override { return "by-weight"; }
  void start(const std::vector<SetMeta>& frames) override;
  double rank(SetId frame) const override { return ranks_[frame]; }

 private:
  std::vector<double> ranks_;
};

/// No preference: models classic drop-tail (later arrivals lose).
class FifoRanker final : public FrameRanker {
 public:
  std::string name() const override { return "drop-tail"; }
  void start(const std::vector<SetMeta>&) override {}
  double rank(SetId) const override { return 0.0; }
};

/// Uniform random priorities regardless of weight (random early drop).
class RandomRanker final : public FrameRanker {
 public:
  explicit RandomRanker(Rng rng) : rng_(rng) {}
  std::string name() const override { return "random-drop"; }
  void start(const std::vector<SetMeta>& frames) override;
  double rank(SetId frame) const override { return ranks_[frame]; }
  void reseed(Rng rng) override { rng_ = rng; }

 private:
  Rng rng_;
  std::vector<double> ranks_;
};

// Schedule helpers shared by the router and the sustained runtime.

/// Each frame's (weight, packet count) in frame id order: what
/// FrameRanker::start takes.
std::vector<SetMeta> frame_metas(const FrameSchedule& schedule);

/// Adds the frame totals to `stats`: frames_total, value_total, and the
/// frames (and value) delivered intact.  served(fi) is the number of frame
/// fi's packets served; it is called once per frame, in ascending frame
/// id, which is also the order the weights are summed in.
template <class ServedOf>
void tally_frames(const FrameSchedule& schedule, ServedOf&& served,
                  RouterStats& stats) {
  stats.frames_total = schedule.frames.size();
  for (std::size_t fi = 0; fi < schedule.frames.size(); ++fi) {
    const Frame f = schedule.frames[fi];
    stats.value_total += f.weight;
    if (served(fi) == f.packet_slots.size()) {
      ++stats.frames_delivered;
      stats.value_delivered += f.weight;
    }
  }
}

}  // namespace osp
