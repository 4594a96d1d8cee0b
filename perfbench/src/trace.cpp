#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kGenInstance: return "gen.instance";
    case SpanName::kGenSchedule: return "gen.schedule";
    case SpanName::kApiSetup: return "api.setup";
    case SpanName::kApiPolicyBuild: return "api.policy_build";
    case SpanName::kApiRunGrid: return "api.run_grid";
    case SpanName::kEnginePlay: return "engine.play";
    case SpanName::kCoreStart: return "core.start";
    case SpanName::kCoreReseed: return "core.reseed";
    case SpanName::kCoreDecideBatch: return "core.decide_batch";
    case SpanName::kNetServe: return "net.serve";
    case SpanName::kNetRankerStart: return "net.ranker_start";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::int32_t Tracer::open(SpanName name) {
  Span span;
  span.name = name;
  span.parent = top_;
  span.op = op_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  top_ = static_cast<std::int32_t>(spans_.size() - 1);
  return top_;
}

void Tracer::close(std::int32_t span) {
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end_ns = now_ns();
  top_ = s.parent;
}

SpanTotals Tracer::totals() const {
  SpanTotals out;
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.parent >= 0) child_seconds[static_cast<std::size_t>(s.parent)] += d;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::size_t n = SpanTotals::index(s.name);
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    out.seconds[n] += d;
    out.self_seconds[n] += d - child_seconds[i];
  }
  return out;
}

bool Tracer::dump(const std::string& path, std::size_t limit) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# span\tname\tstart_ns\tend_ns\tparent\top\n");
  const std::size_t n = std::min(limit, spans_.size());
  if (n < spans_.size())
    std::fprintf(f, "# first %zu of %zu spans\n", n, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%llu\t%llu\t%d\t%u\n", i, span_name(s.name),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent, s.op);
  }
  return std::fclose(f) == 0;
}

TracedPolicy::TracedPolicy(std::unique_ptr<osp::OnlineAlgorithm> inner,
                           Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {
  ++tracer_.counters().policy_builds;
}

void TracedPolicy::start(const std::vector<osp::SetMeta>& sets) {
  ScopedSpan span(&tracer_, SpanName::kCoreStart);
  ++tracer_.counters().starts;
  inner_->start(sets);
}

void TracedPolicy::reseed(osp::Rng rng) {
  ScopedSpan span(&tracer_, SpanName::kCoreReseed);
  inner_->reseed(rng);
}

void TracedPolicy::decide_batch(const osp::ArrivalBlock& block,
                                osp::BlockScratch& scratch,
                                osp::BlockChoices& out) {
  {
    ScopedSpan span(&tracer_, SpanName::kCoreDecideBatch);
    inner_->decide_batch(block, scratch, out);
  }
  Counters& c = tracer_.counters();
  ++c.decide_batch_calls;
  if (scratch.hist_applied) ++c.fused_blocks;
  c.elements += block.count;
  if (block.count > 0) {
    c.candidates += block.offsets[block.count] - block.offsets[0];
    c.choices += out.offsets[block.count];
  }
}

void TracedRanker::start(const std::vector<osp::SetMeta>& frames) {
  ScopedSpan span(&tracer_, SpanName::kNetRankerStart);
  inner_.start(frames);
}

}  // namespace perfbench
