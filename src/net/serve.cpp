#include "net/serve.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "core/csr.hpp"
#include "net/queue.hpp"
#include "util/require.hpp"

namespace osp {

namespace {

// ---------------------------------------------------------------------------
// Input checks and the per-run figures both implementations derive the
// same way before slot 0.

// Frame -> stream; an empty map makes every frame its own stream.
struct StreamMap {
  const std::vector<std::uint32_t>& ids;
  std::size_t operator()(std::size_t frame) const {
    return ids.empty() ? frame : ids[frame];
  }
};

struct RunShape {
  std::size_t num_streams = 0;
  std::vector<double> window_offered;  // per window
};

RunShape check_inputs(const FrameSchedule& schedule, const StreamMap& stream,
                      const ServeSpec& spec) {
  OSP_REQUIRE(spec.links >= 1);
  OSP_REQUIRE(spec.service_rate >= 1);
  OSP_REQUIRE(spec.workers >= 1);
  OSP_REQUIRE(spec.window >= 1);
  schedule.validate();  // O(1): add_frame checked every frame
  const std::size_t num_frames = schedule.frames.size();
  OSP_REQUIRE_MSG(stream.ids.empty() || stream.ids.size() == num_frames,
                  "stream_of must be empty or map every frame");

  RunShape shape;
  for (std::size_t f = 0; f < num_frames; ++f) {
    const std::size_t s = stream(f);
    OSP_REQUIRE_MSG(s < num_frames, "stream id " << s << " out of range");
    shape.num_streams = std::max(shape.num_streams, s + 1);
  }

  // Offered value per window: a frame is offered in the window its last
  // packet arrives in (the earliest slot it could complete).
  shape.window_offered.assign(
      (schedule.horizon + spec.window - 1) / spec.window, 0.0);
  for (const Frame& f : schedule.frames)
    shape.window_offered[f.packet_slots.back() / spec.window] += f.weight;
  return shape;
}

// ---------------------------------------------------------------------------
// The runtime's set-up: link-owned arrival rows.  Each link renumbers its
// frames 0.. in ascending global frame id and gets one row per slot of the
// link-local ids arriving there, so the only per-packet state is a 4-byte
// row entry and a worker reads only its own links' rows.
//
// A frame has at most one packet per slot, so (arrival slot, local id)
// names a packet uniquely, and because local ids ascend with global ids it
// orders a link's packets exactly as the canonical (slot, global frame id)
// arrival order does.  It is therefore the queue's FIFO key: every
// tie-break, and so every decision, is the one a global seq would give.

struct LinkState {
  std::vector<SetId> frames;          // local id -> global frame id
  CsrArray<SetId> arrivals;           // slot -> local ids, ascending
  std::vector<std::uint32_t> served;  // local id -> packets served
  PacketQueue queue;                  // keyed (arrival slot, local id)
};

// One counting pass sizes every link's rows; one scatter pass in ascending
// global frame id assigns the local ids and fills the rows in order.
void build_links(const FrameSchedule& schedule, const StreamMap& stream,
                 std::vector<LinkState>& links) {
  const std::size_t K = links.size();
  const std::size_t H = schedule.horizon;
  OSP_REQUIRE_MSG(H <= (std::uint64_t{1} << 32),
                  "sustained serving keys packets by 32-bit slot");
  std::vector<std::size_t> cursor(K * H, 0);  // (link, slot) -> row fill
  std::vector<std::size_t> num_frames(K, 0);
  for (std::size_t f = 0; f < schedule.frames.size(); ++f) {
    const std::size_t l = stream(f) % K;
    ++num_frames[l];
    for (std::size_t slot : schedule.frames[f].packet_slots)
      ++cursor[l * H + slot];
  }
  for (std::size_t l = 0; l < K; ++l) {
    links[l].frames.reserve(num_frames[l]);
    links[l].arrivals.assign_sizes(cursor.data() + l * H, H);
    links[l].served.assign(num_frames[l], 0);
    links[l].queue.reset(num_frames[l]);
  }
  std::fill(cursor.begin(), cursor.end(), 0);
  for (std::size_t f = 0; f < schedule.frames.size(); ++f) {
    const std::size_t l = stream(f) % K;
    LinkState& link = links[l];
    const auto local = static_cast<SetId>(link.frames.size());
    link.frames.push_back(static_cast<SetId>(f));
    for (std::size_t slot : schedule.frames[f].packet_slots)
      link.arrivals.mutable_row(slot)[cursor[l * H + slot]++] = local;
  }
}

// Tracing only: replaces each served packet's arrival slot with its global
// seq — the packets of every earlier slot plus the frames ahead of it in
// its slot's ascending frame ids.
void rebuild_trace_seqs(const FrameSchedule& schedule, ServeTrace& trace) {
  const CsrArray<SetId> slot_frames = schedule.slot_frames();
  for (ServeTrace::Served& p : trace.served) {
    const auto slot = static_cast<std::size_t>(p.seq);
    const Span<SetId> row = slot_frames.row(slot);
    p.seq = slot_frames.offsets()[slot] +
            static_cast<std::uint64_t>(
                std::lower_bound(row.begin(), row.end(), p.frame) -
                row.begin());
  }
}

// ---------------------------------------------------------------------------
// Per-link accumulators, merged link-ascending at the end so floating-point
// sums are added in the same order for every worker count (and for the
// reference).

struct LinkTally {
  std::size_t arrived = 0;
  std::size_t served = 0;
  std::size_t dropped = 0;
  std::size_t refused_dead = 0;
  std::size_t evictions = 0;
  std::size_t cascade_drops = 0;
  std::size_t leftover = 0;
  LatencyHistogram serve_latency;
  LatencyHistogram drop_latency;
  std::vector<double> window_delivered;      // per window
  std::vector<ServeTrace::Served> trace;     // tracing only
  std::vector<std::size_t> slot_backlog;     // tracing only, per slot
  std::vector<std::size_t> slot_served;      // tracing only, per slot
};

// The deterministic work-conserving allocator: a pure function of the
// per-link live backlogs.  Base grant = min(rate, backlog); spare
// capacity is then lent one packet at a time in round-robin link-id
// order to links that still have unserved backlog, so
// sum(alloc) == min(links * rate, sum(backlog)) and alloc[l] <= backlog[l].
void compute_alloc(const ServeSpec& spec,
                   const std::vector<std::size_t>& backlog,
                   std::vector<std::size_t>& alloc) {
  const std::size_t rate = spec.service_rate;
  std::size_t spare = 0;
  for (std::size_t l = 0; l < spec.links; ++l) {
    alloc[l] = std::min<std::size_t>(rate, backlog[l]);
    spare += rate - alloc[l];
  }
  if (!spec.work_conserving) return;
  bool granted = true;
  while (spare > 0 && granted) {
    granted = false;
    for (std::size_t l = 0; l < spec.links && spare > 0; ++l)
      if (alloc[l] < backlog[l]) {
        ++alloc[l];
        --spare;
        granted = true;
      }
  }
}

// Merges the per-link tallies in link order into the run's stats and
// (when tracing) the canonical trace — shared by the runtime and the
// reference so the accumulation order is identical.  The frame totals
// (tally_frames) are the caller's: each keeps its served counts its own
// way.
SustainedStats finalize(const FrameSchedule& schedule, RunShape&& shape,
                        const std::vector<LinkTally>& tallies,
                        std::vector<std::uint64_t>&& starved,
                        ServeTrace* trace) {
  SustainedStats out;
  const std::size_t num_windows = shape.window_offered.size();
  out.window_offered = std::move(shape.window_offered);
  out.window_delivered.assign(num_windows, 0.0);
  out.starved_slots = std::move(starved);
  for (std::size_t l = 0; l < tallies.size(); ++l) {
    const LinkTally& t = tallies[l];
    out.router.packets_arrived += t.arrived;
    out.router.packets_served += t.served;
    out.router.packets_dropped += t.dropped;
    out.refused_dead += t.refused_dead;
    out.evictions += t.evictions;
    out.cascade_drops += t.cascade_drops;
    out.leftover += t.leftover;
    out.serve_latency.merge(t.serve_latency);
    out.drop_latency.merge(t.drop_latency);
    for (std::size_t w = 0; w < num_windows; ++w)
      out.window_delivered[w] += t.window_delivered[w];
  }

  if (trace != nullptr) {
    trace->served.clear();
    trace->slot_backlog.assign(schedule.horizon, 0);
    trace->slot_served.assign(schedule.horizon, 0);
    for (const LinkTally& t : tallies) {
      trace->served.insert(trace->served.end(), t.trace.begin(),
                           t.trace.end());
      for (std::size_t slot = 0; slot < schedule.horizon; ++slot) {
        trace->slot_backlog[slot] += t.slot_backlog[slot];
        trace->slot_served[slot] += t.slot_served[slot];
      }
    }
    // Per-link traces are slot-ordered with within-slot service order;
    // a stable sort on (slot, link) therefore yields the canonical
    // (slot, link, service order) sequence the reference emits directly.
    std::stable_sort(trace->served.begin(), trace->served.end(),
                     [](const ServeTrace::Served& a,
                        const ServeTrace::Served& b) {
                       if (a.slot != b.slot) return a.slot < b.slot;
                       return a.link < b.link;
                     });
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-slot barrier: a classic generation-counted cyclic barrier, plus
// retire() so a worker that dies on an internal error releases the rest
// instead of deadlocking them (the error is rethrown after the join).

class SlotBarrier {
 public:
  explicit SlotBarrier(std::size_t parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t gen = gen_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++gen_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return gen_ != gen; });
  }

  void retire() {
    std::unique_lock<std::mutex> lock(mutex_);
    --parties_;
    if (parties_ > 0 && waiting_ == parties_) {
      waiting_ = 0;
      ++gen_;
      cv_.notify_all();
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t waiting_ = 0;
  std::uint64_t gen_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------

std::size_t SustainedStats::streams_starved() const {
  std::size_t n = 0;
  for (std::uint64_t s : starved_slots) n += s > 0 ? 1 : 0;
  return n;
}

std::uint64_t SustainedStats::starved_slots_max() const {
  std::uint64_t best = 0;
  for (std::uint64_t s : starved_slots) best = std::max(best, s);
  return best;
}

double SustainedStats::window_goodput_mean() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t w = 0; w < window_offered.size(); ++w)
    if (window_offered[w] > 0) {
      sum += window_delivered[w] / window_offered[w];
      ++n;
    }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double SustainedStats::window_goodput_min() const {
  double best = 0.0;
  bool any = false;
  for (std::size_t w = 0; w < window_offered.size(); ++w)
    if (window_offered[w] > 0) {
      const double g = window_delivered[w] / window_offered[w];
      if (!any || g < best) best = g;
      any = true;
    }
  return any ? best : 0.0;
}

bool operator==(const SustainedStats& a, const SustainedStats& b) {
  return a.router.packets_arrived == b.router.packets_arrived &&
         a.router.packets_served == b.router.packets_served &&
         a.router.packets_dropped == b.router.packets_dropped &&
         a.router.frames_total == b.router.frames_total &&
         a.router.frames_delivered == b.router.frames_delivered &&
         a.router.value_total == b.router.value_total &&
         a.router.value_delivered == b.router.value_delivered &&
         a.refused_dead == b.refused_dead && a.evictions == b.evictions &&
         a.cascade_drops == b.cascade_drops && a.leftover == b.leftover &&
         a.serve_latency == b.serve_latency &&
         a.drop_latency == b.drop_latency &&
         a.starved_slots == b.starved_slots &&
         a.window_offered == b.window_offered &&
         a.window_delivered == b.window_delivered;
}

SustainedStats serve_sustained(const FrameSchedule& schedule,
                               const std::vector<std::uint32_t>& stream_of,
                               FrameRanker& ranker, const ServeSpec& spec,
                               ServeTrace* trace) {
  const StreamMap stream{stream_of};
  RunShape shape = check_inputs(schedule, stream, spec);
  ranker.start(frame_metas(schedule));  // the metas die with this statement

  const std::size_t K = spec.links;
  const std::size_t horizon = schedule.horizon;
  const std::size_t num_streams = shape.num_streams;
  const bool tracing = trace != nullptr;

  // Shared state.  Each element is written by exactly one worker: link
  // state and tallies are per link, the per-stream arrays are only touched
  // through the owning link, and backlog[l] is written in the ingest phase
  // and read (by everyone) only after the barrier.
  std::vector<LinkState> links(K);
  build_links(schedule, stream, links);
  std::vector<LinkTally> tallies(K);
  std::vector<std::size_t> backlog(K, 0);
  std::vector<std::size_t> stream_live(num_streams, 0);
  std::vector<std::size_t> last_served_slot(
      num_streams, std::numeric_limits<std::size_t>::max());
  std::vector<std::uint64_t> starved(num_streams, 0);
  for (LinkTally& t : tallies) {
    t.window_delivered.assign(shape.window_offered.size(), 0.0);
    if (tracing) {
      t.slot_backlog.assign(horizon, 0);
      t.slot_served.assign(horizon, 0);
    }
  }

  const std::size_t W = std::min(spec.workers, K);

  // A packet of a frame already known dead is refused on arrival: it can
  // never contribute value, so it must not take buffer space or link
  // capacity.
  auto ingest = [&](std::size_t l, std::size_t slot) {
    LinkState& link = links[l];
    LinkTally& t = tallies[l];
    for (SetId local : link.arrivals.row(slot)) {
      ++t.arrived;
      if (spec.drop_dead_frames && link.queue.is_dead(local)) {
        ++t.dropped;
        ++t.refused_dead;
        continue;
      }
      const SetId f = link.frames[local];
      link.queue.push(local, ranker.rank(f), slot);
      ++stream_live[stream(f)];
    }
    backlog[l] = link.queue.live_size();
    if (tracing) t.slot_backlog[slot] = backlog[l];
  };

  auto serve_and_trim = [&](std::size_t l, std::size_t slot,
                            std::size_t grant) {
    LinkState& link = links[l];
    PacketQueue& q = link.queue;
    LinkTally& t = tallies[l];
    for (std::size_t i = 0; i < grant; ++i) {
      SetId local;
      std::size_t arrived;
      const bool ok = q.pop_best(&local, &arrived);
      OSP_REQUIRE_MSG(ok, "allocation exceeded live backlog");
      const SetId f = link.frames[local];
      ++t.served;
      t.serve_latency.add(slot - arrived);
      const std::size_t s = stream(f);
      --stream_live[s];
      last_served_slot[s] = slot;
      const Frame frame = schedule.frames[f];
      if (++link.served[local] == frame.packet_slots.size())
        t.window_delivered[slot / spec.window] += frame.weight;
      if (tracing)  // seq holds the arrival slot until rebuild_trace_seqs
        t.trace.push_back(ServeTrace::Served{slot, l, f, arrived});
    }
    if (tracing) t.slot_served[slot] = grant;

    // Trim to the buffer, worst live packet first.  Every eviction kills
    // its frame; with drop_dead_frames the frame's other queued packets
    // are written off with it (lazily), which often ends the trim early.
    while (q.live_size() > spec.buffer) {
      SetId local;
      std::size_t arrived;
      q.pop_worst(&local, &arrived);
      ++t.dropped;
      ++t.evictions;
      t.drop_latency.add(slot - arrived);
      const std::size_t s = stream(link.frames[local]);
      --stream_live[s];
      if (spec.drop_dead_frames) {
        const std::size_t killed = q.kill_frame(local);
        t.dropped += killed;
        t.cascade_drops += killed;
        stream_live[s] -= killed;
      }
    }

    for (std::size_t s = l; s < num_streams; s += K)  // link l's streams
      if (stream_live[s] > 0 && last_served_slot[s] != slot) ++starved[s];
  };

  auto run_worker = [&](std::size_t w, SlotBarrier* barrier) {
    const std::size_t lo = w * K / W;
    const std::size_t hi = (w + 1) * K / W;
    std::vector<std::size_t> alloc(K, 0);  // worker-local, redundant compute
    for (std::size_t slot = 0; slot < horizon; ++slot) {
      for (std::size_t l = lo; l < hi; ++l) ingest(l, slot);
      if (barrier != nullptr) barrier->arrive_and_wait();
      compute_alloc(spec, backlog, alloc);
      for (std::size_t l = lo; l < hi; ++l) serve_and_trim(l, slot, alloc[l]);
      if (barrier != nullptr) barrier->arrive_and_wait();
    }
    for (std::size_t l = lo; l < hi; ++l) {
      tallies[l].leftover = links[l].queue.live_size();
      tallies[l].dropped += tallies[l].leftover;
    }
  };

  if (W <= 1) {
    run_worker(0, nullptr);
  } else {
    SlotBarrier barrier(W);
    std::vector<std::exception_ptr> errors(W);
    auto guarded = [&](std::size_t w) {
      try {
        run_worker(w, &barrier);
      } catch (...) {
        errors[w] = std::current_exception();
        barrier.retire();
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(W - 1);
    for (std::size_t w = 1; w < W; ++w)
      threads.emplace_back(guarded, w);
    guarded(0);
    for (std::thread& t : threads) t.join();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
  }

  SustainedStats out = finalize(schedule, std::move(shape), tallies,
                                std::move(starved), trace);
  // Ascending global frame ids visit each link's local ids in order.
  std::vector<std::size_t> next_local(K, 0);
  tally_frames(
      schedule,
      [&](std::size_t f) {
        const std::size_t l = stream(f) % K;
        return links[l].served[next_local[l]++];
      },
      out.router);
  if (tracing) rebuild_trace_seqs(schedule, *trace);
  return out;
}

SustainedStats serve_sustained_reference(
    const FrameSchedule& schedule, const std::vector<std::uint32_t>& stream_of,
    FrameRanker& ranker, const ServeSpec& spec, ServeTrace* trace) {
  const StreamMap stream{stream_of};
  RunShape shape = check_inputs(schedule, stream, spec);
  ranker.start(frame_metas(schedule));

  const std::size_t K = spec.links;
  const bool tracing = trace != nullptr;

  // Independent per-packet preparation: every packet carries its global
  // seq from the canonical slot-major order and its arrival slot, and is
  // routed to its frame's link as it arrives.
  const CsrArray<SetId> slot_frames = schedule.slot_frames();

  struct QueuedPacket {
    SetId frame;
    double rank;
    std::uint64_t seq;
    std::size_t slot;  // arrival slot
  };

  std::vector<std::vector<QueuedPacket>> queues(K);
  std::vector<LinkTally> tallies(K);
  std::vector<std::size_t> backlog(K, 0);
  std::vector<std::size_t> alloc(K, 0);
  std::vector<std::size_t> served_per_frame(schedule.frames.size(), 0);
  std::vector<bool> dead(schedule.frames.size(), false);
  std::vector<std::size_t> stream_live(shape.num_streams, 0);
  std::vector<std::size_t> last_served_slot(
      shape.num_streams, std::numeric_limits<std::size_t>::max());
  std::vector<std::uint64_t> starved(shape.num_streams, 0);
  for (LinkTally& t : tallies) {
    t.window_delivered.assign(shape.window_offered.size(), 0.0);
    if (tracing) {
      t.slot_backlog.assign(schedule.horizon, 0);
      t.slot_served.assign(schedule.horizon, 0);
    }
  }

  std::uint64_t seq = 0;
  for (std::size_t slot = 0; slot < schedule.horizon; ++slot) {
    // Ingest every link, then allocate, then serve — the same phase
    // structure as the runtime, realized serially.  The vector queue
    // never holds a dead packet (arrivals refused, cascades removed
    // eagerly), so queue.size() is the live backlog.
    for (SetId f : slot_frames.row(slot)) {
      const std::uint64_t arrival = seq++;
      const std::size_t l = stream(f) % K;
      LinkTally& t = tallies[l];
      ++t.arrived;
      if (spec.drop_dead_frames && dead[f]) {
        ++t.dropped;
        ++t.refused_dead;
        continue;
      }
      queues[l].push_back(QueuedPacket{f, ranker.rank(f), arrival, slot});
      ++stream_live[stream(f)];
    }
    for (std::size_t l = 0; l < K; ++l) {
      backlog[l] = queues[l].size();
      if (tracing) tallies[l].slot_backlog[slot] = backlog[l];
    }

    compute_alloc(spec, backlog, alloc);

    for (std::size_t l = 0; l < K; ++l) {
      std::vector<QueuedPacket>& q = queues[l];
      LinkTally& t = tallies[l];
      // (rank desc, seq asc) — seqs are unique, so this is a total order
      // and the front `alloc[l]` packets are exactly what the runtime
      // queue's pop_best sequence serves.
      std::sort(q.begin(), q.end(),
                [](const QueuedPacket& a, const QueuedPacket& b) {
                  if (a.rank != b.rank) return a.rank > b.rank;
                  return a.seq < b.seq;
                });
      OSP_REQUIRE(alloc[l] <= q.size());
      for (std::size_t i = 0; i < alloc[l]; ++i) {
        const QueuedPacket& p = q[i];
        ++served_per_frame[p.frame];
        ++t.served;
        t.serve_latency.add(slot - p.slot);
        const std::size_t s = stream(p.frame);
        --stream_live[s];
        last_served_slot[s] = slot;
        const Frame frame = schedule.frames[p.frame];
        if (served_per_frame[p.frame] == frame.packet_slots.size())
          t.window_delivered[slot / spec.window] += frame.weight;
        if (tracing)
          t.trace.push_back(ServeTrace::Served{slot, l, p.frame, p.seq});
      }
      q.erase(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(alloc[l]));
      if (tracing) t.slot_served[slot] = alloc[l];

      // Trim from the tail — (rank asc, seq desc), the pop_worst order.
      while (q.size() > spec.buffer) {
        const QueuedPacket worst = q.back();
        q.pop_back();
        ++t.dropped;
        ++t.evictions;
        t.drop_latency.add(slot - worst.slot);
        --stream_live[stream(worst.frame)];
        if (!spec.drop_dead_frames) continue;
        dead[worst.frame] = true;
        auto doomed = std::remove_if(q.begin(), q.end(),
                                     [&](const QueuedPacket& p) {
                                       return p.frame == worst.frame;
                                     });
        const std::size_t killed =
            static_cast<std::size_t>(q.end() - doomed);
        t.dropped += killed;
        t.cascade_drops += killed;
        stream_live[stream(worst.frame)] -= killed;
        q.erase(doomed, q.end());
      }

      for (std::size_t s = l; s < shape.num_streams; s += K)
        if (stream_live[s] > 0 && last_served_slot[s] != slot) ++starved[s];
    }
  }

  for (std::size_t l = 0; l < K; ++l) {
    tallies[l].leftover = queues[l].size();
    tallies[l].dropped += tallies[l].leftover;
  }

  SustainedStats out = finalize(schedule, std::move(shape), tallies,
                                std::move(starved), trace);
  tally_frames(
      schedule, [&](std::size_t f) { return served_per_frame[f]; },
      out.router);
  return out;
}

}  // namespace osp
