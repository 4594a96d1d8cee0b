// Outside-in tracing for the benchmark's traced runs.
//
// The benchmark never instruments the library.  It opens spans around its
// own calls into the gen, api, engine and net layers, and it wraps each
// policy (OnlineAlgorithm) and ranker (FrameRanker) in a forwarding
// decorator that opens spans around start(), reseed() and decide_batch()
// and counts the work those calls are handed.  Spans live in memory until the run
// ends; dump() writes them out (format in NOTES.md).
//
// Everything here is single-threaded: the benchmark runs every workload
// with one engine worker and one serving worker, so spans nest strictly
// and a span's self time is its duration minus its direct children's.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "net/router_sim.hpp"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kGenInstance,      // api::build_instance -> gen generators
  kGenSchedule,      // api::build_video -> gen video schedule
  kApiSetup,         // scenario lookup/expansion and grid assembly
  kApiPolicyBuild,   // one policy factory call
  kApiRunGrid,       // Session::run_grid over a one-cell slice
  kEnginePlay,       // play_flat_blocks
  kCoreStart,        // OnlineAlgorithm::start
  kCoreReseed,       // OnlineAlgorithm::reseed
  kCoreDecideBatch,  // OnlineAlgorithm::decide_batch
  kNetServe,         // serve_sustained
  kNetRankerStart,   // FrameRanker::start
  kCount
};

constexpr std::size_t kNumSpanNames = static_cast<std::size_t>(SpanName::kCount);
const char* span_name(SpanName name);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  // index of the enclosing span, -1 at top level
  std::uint32_t op = 0;      // operation id shared by all spans of one op
  SpanName name = SpanName::kCount;
};

/// Work counted at the decorator boundaries, summed over a traced run.
struct Counters {
  std::uint64_t policy_builds = 0;
  std::uint64_t starts = 0;
  std::uint64_t decide_batch_calls = 0;
  std::uint64_t fused_blocks = 0;  // decide_batch calls reporting hist_applied
  std::uint64_t elements = 0;      // block records handed to decide_batch
  std::uint64_t candidates = 0;
  std::uint64_t choices = 0;
  std::uint64_t rank_calls = 0;
};

/// Per-name totals over every span of a run.
struct SpanTotals {
  std::array<double, kNumSpanNames> seconds{};       // summed durations
  std::array<double, kNumSpanNames> self_seconds{};  // minus direct children
  double total(SpanName n) const { return seconds[index(n)]; }
  double self(SpanName n) const { return self_seconds[index(n)]; }
  static std::size_t index(SpanName n) { return static_cast<std::size_t>(n); }
};

class Tracer {
 public:
  Tracer();

  /// Starts a new operation; later spans carry its id.
  void begin_op() { ++op_; }

  std::int32_t open(SpanName name);
  void close(std::int32_t span);

  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Totals per span name over every span recorded so far.
  SpanTotals totals() const;

  /// Writes the first `limit` spans, one tab-separated line each; returns
  /// false when the file cannot be written.
  bool dump(const std::string& path, std::size_t limit) const;

 private:
  std::uint64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int32_t top_ = -1;  // innermost open span
  std::uint32_t op_ = 0;
  Counters counters_;
};

/// RAII span; a null tracer makes it a no-op, so untraced code paths share
/// the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name)
      : tracer_(tracer), span_(tracer ? tracer->open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t span_;
};

/// Forwarding decorator around a policy: spans around start(), reseed()
/// and decide_batch(), counters for what each block carried.  Decisions are
/// the inner policy's, unchanged.
class TracedPolicy final : public osp::OnlineAlgorithm {
 public:
  TracedPolicy(std::unique_ptr<osp::OnlineAlgorithm> inner, Tracer& tracer);

  std::string name() const override { return inner_->name(); }
  void start(const std::vector<osp::SetMeta>& sets) override;
  void reseed(osp::Rng rng) override;
  bool reseedable() const override { return inner_->reseedable(); }
  std::size_t decide(osp::ElementId u, osp::Capacity capacity,
                     const osp::SetId* candidates, std::size_t num_candidates,
                     osp::SetId* out) override {
    return inner_->decide(u, capacity, candidates, num_candidates, out);
  }
  void decide_batch(const osp::ArrivalBlock& block, osp::BlockScratch& scratch,
                    osp::BlockChoices& out) override;

 private:
  std::unique_ptr<osp::OnlineAlgorithm> inner_;
  Tracer& tracer_;
};

/// Forwarding decorator around a frame ranker: a span around start(), a
/// count of rank() calls.
class TracedRanker final : public osp::FrameRanker {
 public:
  TracedRanker(osp::FrameRanker& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }
  void start(const std::vector<osp::SetMeta>& frames) override;
  // Counted without a lock: the benchmark serves with one worker, so
  // rank() is never called concurrently here.
  double rank(osp::SetId frame) const override {
    ++tracer_.counters().rank_calls;
    return inner_.rank(frame);
  }
  void reseed(osp::Rng rng) override { inner_.reseed(rng); }

 private:
  osp::FrameRanker& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
