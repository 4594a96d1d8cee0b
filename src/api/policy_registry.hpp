// The policy catalog — the single front door for constructing online
// policies.
//
// Every policy the library ships is one entry of the list in
// policy_registry.cpp, under a canonical spec string with a
// `family:variant` param syntax:
//
//   "randpr"          the paper's randPr, exactly
//   "randpr:filt"     randPr with dead-set filtering
//   "hashpr:tab"      distributed randPr over a tabulation hash
//   "greedy:srpt"     shortest-remaining greedy baseline
//
// Callers resolve a spec with policies().make(spec, rng); unknown specs
// throw a RequireError whose message enumerates the catalog (per-family
// variants when the family exists; see Registry::at).  The list's order
// is what `osp_cli list`, `--help`, the test sweeps and every "all
// policies" grid iterate.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "core/algorithm.hpp"
#include "util/rng.hpp"

namespace osp::api {

/// Builds a fresh policy from a per-trial seeded Rng.  Structurally
/// identical to engine::AlgFactory, so catalog entries drop straight into
/// engine::AlgSpec grid columns.
using PolicyFactory = std::function<std::unique_ptr<OnlineAlgorithm>(Rng)>;

/// One policy of the catalog.
struct PolicyInfo {
  /// Canonical spec, `family` or `family:variant` (e.g. "greedy:srpt").
  std::string name;
  /// One-line description for `osp_cli list` / error catalogs.
  std::string description;
  /// Accepted alternate spellings (legacy CLI names, display names).
  std::vector<std::string> aliases;
  PolicyFactory make;
};

/// The policy catalog: randPr and its ablations, the hashed variants, then
/// the deterministic and memoryless baselines (docs/CATALOG.md's order).
const Registry<PolicyInfo>& policies();

}  // namespace osp::api
