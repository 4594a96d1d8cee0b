// Sustained multi-link serving runtime: the one implementation of the
// buffered link.
//
// The runtime serves K links concurrently for a long horizon: streams are
// partitioned across links (stream s lands on link s mod K), every link
// runs the buffered-link slot semantics (arrivals -> serve -> trim, with
// dead-frame refusal and eviction) on its own PacketQueue, and a
// work-conserving allocator lends a link's spare service capacity to
// backlogged neighbours each slot.  At links = 1 it is the buffered router
// of the paper's open problem 2: the router benches and the ranker grid
// (api::Session::run_rankers) call it that way and read
// SustainedStats::router.  Frame drop priorities come from the same
// FrameRanker oracles the ranker catalog (api::rankers()) lists, so every
// listed ranker is a drop policy with no code change.
//
// Determinism contract (the shard/merge discipline, applied to threads):
// all randomness is consumed serially before workers start — the ranker
// is started once on the frame metas — and the spare-capacity allocation
// is a pure function of the per-link backlog vector.  The canonical
// arrival order is slot-major, frame id ascending (the global order the
// single-link router numbers packets in).  No global seq is assigned up
// front: each link's queue breaks ties by (arrival slot, link-local frame
// id), and local ids ascend with global ids, so within a link that key
// is exactly the canonical order.  The global seqs of ServeTrace are
// rebuilt after the run, and only when a trace is requested.  Workers
// only ever touch the links (and therefore streams) they own, and they
// synchronise on a per-slot barrier between the ingest and serve phases,
// so the run's decisions depend on (seed, spec) alone — not on the worker
// count and not on thread scheduling.  serve_sustained_reference is the
// independent sorted-vector implementation of the same semantics, keyed
// by global seq; stats and trace identity against it across worker
// counts is the equivalence oracle (test_serve.cpp, which also holds the
// single-link cases).
//
// FrameRanker::rank() is called concurrently from workers after the
// serial start(); every registered ranker satisfies this (rank() is a
// const vector lookup once start() has run).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gen/schedule.hpp"
#include "net/router_sim.hpp"
#include "net/serve_metrics.hpp"

namespace osp {

/// Configuration of a sustained run.  service_rate and buffer are per
/// link; capacity lending (work_conserving) never lets a link exceed its
/// own queue's backlog, so buffers stay strictly per-link.
struct ServeSpec {
  std::size_t links = 1;
  Capacity service_rate = 1;     // packets per link per slot
  std::size_t buffer = 0;        // waiting packets per link
  bool work_conserving = true;   // lend spare capacity to busy links
  bool drop_dead_frames = true;  // refuse/evict packets of dead frames
  std::size_t workers = 1;       // serving threads (1 = inline, no barrier)
  std::size_t window = 256;      // slots per goodput window
};

/// Steady-state counters of one sustained run.  Every field is a pure
/// function of (schedule, stream_of, ranker seed, spec-without-workers):
/// operator== across worker counts is the decision-identity check.
struct SustainedStats {
  RouterStats router;  // the router's aggregate counters

  // Drop taxonomy (each counted inside router.packets_dropped too):
  std::size_t refused_dead = 0;   // arrivals refused, frame already dead
  std::size_t evictions = 0;      // direct buffer-overflow evictions
  std::size_t cascade_drops = 0;  // write-offs when an eviction kills a frame
  std::size_t leftover = 0;       // still queued when the horizon ended

  // Slot latencies (arrival slot -> decision slot).  drop_latency samples
  // direct evictions only: refused arrivals never queued (latency 0 by
  // definition) and cascade write-offs are lazy deletions whose eviction
  // slot is the killing slot — both are counted above, not here.
  LatencyHistogram serve_latency;
  LatencyHistogram drop_latency;

  // starved_slots[s]: slots in which stream s had live queued packets yet
  // received no service.  A stream whose backlog was entirely evicted in
  // the slot is not starved — it has nothing left to serve.
  std::vector<std::uint64_t> starved_slots;

  // Sliding-window goodput ledger: frame value attributed to the window
  // of its last-packet arrival slot (offered) and of its completion slot
  // (delivered).  Sum(window_delivered) == router.value_delivered and
  // Sum(window_offered) == router.value_total by construction.
  std::vector<double> window_offered;
  std::vector<double> window_delivered;

  std::size_t streams_starved() const;
  std::uint64_t starved_slots_max() const;
  /// Mean / min over windows of delivered/offered (windows with zero
  /// offered value are skipped; 0 when no window offered anything).
  /// A window's ratio can exceed 1: a frame offered at the end of one
  /// window may complete — and deliver its value — early in the next.
  double window_goodput_mean() const;
  double window_goodput_min() const;
};

bool operator==(const SustainedStats& a, const SustainedStats& b);
inline bool operator!=(const SustainedStats& a, const SustainedStats& b) {
  return !(a == b);
}

/// Optional per-decision record of a sustained run, in canonical order
/// (slot, then link, then service order) regardless of worker count.
/// Trace equality + stats equality is full decision identity.
struct ServeTrace {
  struct Served {
    std::size_t slot = 0;
    std::size_t link = 0;
    SetId frame = 0;
    std::uint64_t seq = 0;  // global arrival index of the packet
  };
  std::vector<Served> served;
  // Per-slot totals across links: live backlog after arrivals, and
  // packets served.  Work conservation is the invariant
  //   slot_served[t] == min(links * service_rate, slot_backlog[t]).
  std::vector<std::size_t> slot_backlog;
  std::vector<std::size_t> slot_served;
};

inline bool operator==(const ServeTrace::Served& a,
                       const ServeTrace::Served& b) {
  return a.slot == b.slot && a.link == b.link && a.frame == b.frame &&
         a.seq == b.seq;
}

/// Runs the sustained runtime.  stream_of maps each frame to its stream
/// (empty = every frame is its own stream); stream ids must be < the
/// frame count.  The schedule's frames were checked as they were added
/// (FrameSchedule::add_frame), so the call checks only that the horizon
/// covers them (FrameSchedule::validate(), O(1)).  With
/// spec.workers == 1 the slot loop runs inline on the calling thread;
/// otherwise spec.workers threads serve disjoint link ranges under the
/// per-slot barrier.  The result is identical either way.
///
/// The stream map decides which link serves a frame and what the
/// starvation counters count; at links = 1 it changes nothing else.  Its
/// cost: every slot, each link scans all of its streams for starvation,
/// so an empty map makes that scan O(frames) per slot.  One-link
/// router/overload at buffer 1024 (about 1M packets, 430k frames, 20k
/// slots) took 7.2-10.3 s per call that way, against 0.24-0.30 s with the
/// workload's 64-stream map (3 calls each, Release build, 4-vCPU Xeon
/// VM).  Pass the workload's stream map when there is one.
SustainedStats serve_sustained(const FrameSchedule& schedule,
                               const std::vector<std::uint32_t>& stream_of,
                               FrameRanker& ranker, const ServeSpec& spec,
                               ServeTrace* trace = nullptr);

/// The independent sorted-vector implementation of the same semantics —
/// the equivalence oracle.  Ignores spec.workers (always serial).
SustainedStats serve_sustained_reference(
    const FrameSchedule& schedule, const std::vector<std::uint32_t>& stream_of,
    FrameRanker& ranker, const ServeSpec& spec, ServeTrace* trace = nullptr);

}  // namespace osp
