// The ranker catalog — the single front door for the buffered router's
// FrameRankers, on the same Registry as the policy catalog.
//
// Every ranker the library ships is one entry of the list in
// ranker_registry.cpp, under the display name the router benches key
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
// The list's order is what `osp_cli list`, `osp_cli bench --ranker`, and
// the router benches iterate.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "net/router_sim.hpp"
#include "util/rng.hpp"

namespace osp::api {

/// Builds a fresh ranker from a per-draw seeded Rng (deterministic
/// rankers ignore it).
using RankerFactory = std::function<std::unique_ptr<FrameRanker>(Rng)>;

/// One ranker of the catalog.
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

/// The ranker catalog, in bench_router's historical order.
const Registry<RankerInfo>& rankers();

}  // namespace osp::api
