// RankerRegistry — the single front door for the buffered router's
// FrameRankers, mirroring PolicyRegistry.
//
// Every ranker the library ships registers itself here (self-registering
// RankerRegistrar statics live next to the implementations at the bottom
// of net/router_sim.cpp), under the display name the router benches key
// their tables and BENCH_router.json rows on:
//
//   "randPr"       persistent random R_w frame priorities (the paper)
//   "by-weight"    deterministic: protect the heaviest frames
//   "drop-tail"    no preference: later arrivals lose
//   "random-drop"  uniform random priorities regardless of weight
//
// Callers resolve a name with rankers().make(name, rng); unknown names
// throw a RequireError enumerating the catalog.  Every ranker supports
// FrameRanker::reseed(), so api::Session's ranker runs construct one per
// worker and re-arm it per draw with the draw's ranker stream
// (randomized rankers consume the rng; deterministic ones ignore it).
// The registry is enumerable in registration order — what `osp_cli
// list`, `osp_cli bench --ranker`, and the router benches iterate,
// killing their hand-built ranker lists.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/router_sim.hpp"
#include "util/rng.hpp"

namespace osp::api {

/// Builds a fresh ranker from a per-draw seeded Rng (deterministic
/// rankers ignore it).
using RankerFactory = std::function<std::unique_ptr<FrameRanker>(Rng)>;

/// One registered ranker.
struct RankerInfo {
  /// Display name — must equal the constructed ranker's name(), which is
  /// what the router benches key their JSON rows on.
  std::string name;
  /// One-line description for `osp_cli list` / error catalogs.
  std::string description;
  /// Accepted alternate spellings (e.g. "randpr" for "randPr").
  std::vector<std::string> aliases;
  RankerFactory make;
};

class RankerRegistry {
 public:
  /// Registers `info`; duplicate names or aliases throw.
  void add(RankerInfo info);

  /// Looks `name` up by display name or alias; nullptr when absent.
  const RankerInfo* find(const std::string& name) const;

  /// find() that throws a RequireError enumerating the catalog.
  const RankerInfo& at(const std::string& name) const;

  /// at() + construction in one call.
  std::unique_ptr<FrameRanker> make(const std::string& name, Rng rng) const;

  /// All entries in registration order.
  const std::vector<RankerInfo>& entries() const { return entries_; }

  /// Display names in registration order.
  std::vector<std::string> names() const;

  /// "  name  description" lines for help text and errors.
  std::string render_catalog() const;

  /// "| name | description | aliases |" markdown table (docs/CATALOG.md).
  std::string render_markdown() const;

 private:
  std::vector<RankerInfo> entries_;
};

/// The process-wide registry, populated by the self-registering entries in
/// net/router_sim.cpp before main() runs.
RankerRegistry& rankers();

/// Registers one ranker into rankers() from a static initializer.
struct RankerRegistrar {
  explicit RankerRegistrar(RankerInfo info);
};

}  // namespace osp::api
