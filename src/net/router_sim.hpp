// Discrete-time bottleneck-router simulator.
//
// Unbuffered mode implements the paper's model exactly: in each slot a
// burst of packets arrives, the link serves `service_rate` of them, and
// the rest are lost — so a run is equivalent, frame for frame, to playing
// the osp game on FrameSchedule::to_instance (tested in test_net.cpp).
//
// Buffered mode probes the paper's open problem 2 ("the effect of
// buffers"): packets that lose the link can wait in a bounded buffer.
// Decisions are made by a FrameRanker — a per-frame priority oracle;
// randPr's persistent R_w priorities fit this interface directly, which
// is itself evidence for the algorithm's practicality.
//
// The buffered queue is ordered by (live, rank, seq): packets of live
// frames before packets of dead ones, then rank descending, then global
// arrival order.  With drop_dead_frames set, a frame death is final — its
// packets can never contribute value — so the simulator never spends link
// capacity or buffer space on them: arrivals of dead frames are refused,
// and a frame killed by an overflow drop has its queued packets evicted
// with it.  (The pre-queue.hpp simulator kept such packets around and
// served them when the queue ran short; see the goodput regression test
// in test_net.cpp.)
//
// simulate_buffered_router runs on the indexed-heap PacketQueue —
// O((arrivals + served + dropped) · log Q) per slot;
// simulate_buffered_router_reference is the straightened-out full-sort
// implementation — O(Q log Q) per slot — kept as the decision-identical
// cross-check (proven slot for slot in test_net.cpp, re-proven on every
// bench_router run).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "gen/schedule.hpp"
#include "net/queue.hpp"
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
/// each slot (at most `service_rate`), all others are lost.  Equivalent to
/// the osp game on schedule.to_instance(service_rate).  The per-slot
/// bursts are packed into one CSR array up front and fed to the
/// algorithm's decide_batch() in arrival blocks, so a whole run costs a
/// handful of virtual calls rather than one per slot.
RouterStats simulate_router(const FrameSchedule& schedule,
                            OnlineAlgorithm& alg, Capacity service_rate = 1);

/// Per-frame priority oracle for the buffered router.  Shipped rankers
/// self-register in api::rankers() (api/ranker_registry.hpp; registrar
/// statics at the bottom of router_sim.cpp), which is what the router
/// benches and `osp_cli bench --ranker` enumerate.
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

/// Buffered router configuration.
struct BufferedRouterParams {
  Capacity service_rate = 1;
  std::size_t buffer_size = 0;    // packets that can wait
  bool drop_dead_frames = true;   // refuse/evict packets of frames that
                                  // already lost a packet (value is gone)
};

/// Optional per-decision record of a buffered run: every serviced packet
/// in service order.  Two runs are decision-identical iff their traces
/// (and stats) are equal — what test_net uses to prove the heap router
/// against the sort reference.
struct RouterTrace {
  struct Served {
    std::size_t slot;
    SetId frame;
    std::uint64_t seq;  // global arrival index of the packet
  };
  std::vector<Served> served;
};

// Schedule helpers shared by the buffered router, its reference and the
// sustained runtime.

/// Each frame's (weight, packet count) in frame id order: what
/// FrameRanker::start takes.  The in-place form reuses `metas`' storage.
void frame_metas(const FrameSchedule& schedule, std::vector<SetMeta>& metas);
std::vector<SetMeta> frame_metas(const FrameSchedule& schedule);

/// Packs every slot's arrival burst into one CSR row in ascending frame id
/// — the canonical arrival order, so the packet of frame f in slot t has
/// global seq offsets()[t] + (position of f in row t).  A counting pass
/// sizes the rows, a scatter pass fills them; `cursor` is scratch, and
/// warm storage makes the build allocation-free.
void build_slot_frames(const FrameSchedule& schedule,
                       CsrArray<SetId>& slot_frames,
                       std::vector<std::size_t>& cursor);

/// Adds the frame totals to `stats`: frames_total, value_total, and the
/// frames (and value) delivered intact.  served(fi) is the number of frame
/// fi's packets served; it is called once per frame, in ascending frame
/// id, which is also the order the weights are summed in.
template <class ServedOf>
void tally_frames(const FrameSchedule& schedule, ServedOf&& served,
                  RouterStats& stats) {
  stats.frames_total = schedule.frames.size();
  for (std::size_t fi = 0; fi < schedule.frames.size(); ++fi) {
    const Frame& f = schedule.frames[fi];
    stats.value_total += f.weight;
    if (served(fi) == f.packet_slots.size()) {
      ++stats.frames_delivered;
      stats.value_delivered += f.weight;
    }
  }
}

/// Reusable working state for simulate_buffered_router; pass the same
/// scratch to successive runs (one per worker thread) and the steady
/// state performs no heap allocations.  Per-slot arrival bursts are
/// packed into one CSR array (one row per slot) instead of a
/// vector-of-vectors, so feeding a slot's burst is a contiguous scan.
struct BufferedRouterScratch {
  PacketQueue queue;
  CsrArray<SetId> slot_frames;          // row = slot's burst, ascending ids
  std::vector<std::size_t> cursor;      // build_slot_frames scratch
  std::vector<SetMeta> metas;
  std::vector<std::size_t> served;
};

/// Buffered router on the indexed-heap PacketQueue: each slot, arriving
/// packets join the queue, the best `service_rate` live packets are
/// served, and the queue is then trimmed to `buffer_size` by evicting the
/// worst live packets (each eviction kills its frame, and with
/// drop_dead_frames the rest of that frame's packets are evicted with
/// it).  O((arrivals + served + dropped) · log Q) per slot.
RouterStats simulate_buffered_router(const FrameSchedule& schedule,
                                     FrameRanker& ranker,
                                     const BufferedRouterParams& params,
                                     BufferedRouterScratch* scratch = nullptr,
                                     RouterTrace* trace = nullptr);

/// The full-sort reference implementation of the same semantics —
/// O(Q log Q) per slot.  Kept for the decision-identity cross-check and
/// as the "old path" baseline of bench_router's throughput section.
RouterStats simulate_buffered_router_reference(
    const FrameSchedule& schedule, FrameRanker& ranker,
    const BufferedRouterParams& params, RouterTrace* trace = nullptr);

}  // namespace osp
