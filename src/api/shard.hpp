// Sharded grid execution — split an expanded experiment grid across
// processes and recombine the partial results byte-for-byte.
//
// The pieces, in pipeline order:
//
//   ShardPlan        deterministically assigns the expanded
//                    (instance × policy) grid cells to shard i of N as
//                    contiguous row-major slices.  Trial seeds derive
//                    from GLOBAL cell coordinates (engine::trial_seed),
//                    so each cell's per-trial Rng stream is independent
//                    of the shard count — the recombined grid is
//                    provably identical to the serial run;
//   grid_fingerprint hashes the canonical description of the whole grid
//                    (every expanded cell's parameters, the policy
//                    list, trials, seed) so a merge can prove its
//                    partials came from the same experiment;
//   ShardSink        a ResultSink writing one partial-result file: a
//                    manifest header (bench name, fingerprint, shard
//                    index/count, cell range, threads) followed by one
//                    `row <cell> <json>` line per row in canonical cell
//                    order, the JSON being exactly the text row_json
//                    renders for the artifact, and a row-count footer
//                    that detects truncation;
//   parse_shard_partial / merge_shards
//                    the strict reader and the tiling validator: the
//                    partials must cover cells [0, total) exactly —
//                    no gaps, no overlaps, matching fingerprints /
//                    bench names / threads / shard counts — with
//                    enumerated RequireErrors otherwise.  merge_shards
//                    returns the row texts in canonical cell order;
//                    appended through JsonSink::write_json they are the
//                    unsharded BENCH_*.json by construction, since no
//                    row is ever parsed back and rendered again.
//
// `osp_cli bench --shard i/N --out PART` writes one partial;
// `osp_cli merge PART... --json NAME` recombines them (and
// scripts/check_bench_json.py validates the partial format too).
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "api/result_sink.hpp"
#include "api/scenario.hpp"

namespace osp::api {

/// Contiguous row-major assignment of grid cells to shard `index` of
/// `count`.  Cell sizes differ by at most one (the first total % count
/// shards get the extra cell), so any N tiles [0, total) exactly.
struct ShardPlan {
  std::size_t index = 0;  // shard i, 0-based
  std::size_t count = 1;  // of N

  /// Strict "i/N" parse with 0 <= i < N; throws a one-line RequireError
  /// naming `what` (e.g. "flag --shard") on anything else — "3/2",
  /// "0/0", "1/", "x/4" all fail, never abort.
  static ShardPlan parse(const std::string& what, const std::string& text);

  /// This shard's half-open cell slice [first, second) of `total_cells`.
  /// Empty when count > total_cells leaves this shard nothing.
  std::pair<std::size_t, std::size_t> slice(std::size_t total_cells) const;

  /// The shard that owns `cell` under this plan's count.
  std::size_t owner(std::size_t cell, std::size_t total_cells) const;
};

/// Header of one partial-result file.
struct ShardManifest {
  std::string bench;                // merged artifact name (BENCH_<bench>)
  std::uint64_t fingerprint = 0;    // grid_fingerprint of the whole grid
  std::size_t shard_index = 0;      // i of the i/N plan that produced it
  std::size_t shard_count = 1;      // N
  std::size_t cell_begin = 0;       // half-open global cell range
  std::size_t cell_end = 0;
  std::size_t total_cells = 0;      // cells in the whole grid
  std::size_t threads = 1;          // runner workers (JSON preamble field)
};

/// FNV-1a 64 over the canonical description of the expanded grid: every
/// cell's family + shape parameters + label, the resolved policy names,
/// the trial count, and the master seed.  Shard-independent by
/// construction — the plan is deliberately NOT part of the hash.
std::uint64_t grid_fingerprint(const std::vector<ScenarioSpec>& cells,
                               const std::vector<std::string>& policies,
                               int trials, std::uint64_t seed);

/// Streams one shard's rows into a partial-result file.  Rows must
/// arrive in canonical cell order (Session::run_grid emits them that
/// way); close() writes the row-count footer and requires exactly
/// cell_end - cell_begin rows, so a partial can never silently truncate.
/// An empty slice (count > cells) still yields a valid, mergeable file.
class ShardSink final : public ResultSink {
 public:
  ShardSink(std::ostream& os, const ShardManifest& manifest);
  /// File form; throws RequireError when `path` cannot be opened.
  ShardSink(const std::string& path, const ShardManifest& manifest);
  ~ShardSink() override;

  void write(const Row& row) override;
  void close() override;

 private:
  void write_header();

  std::ofstream file_;  // unused by the custom-stream form
  std::ostream* os_;
  ShardManifest manifest_;
  std::size_t rows_ = 0;
  bool closed_ = false;
};

/// One parsed partial: its manifest, its rows' JSON texts (in cell
/// order, verbatim), and the origin (file name) for merge error messages.
struct ShardPartial {
  ShardManifest manifest;
  std::vector<std::string> rows;
  std::string origin;
};

/// Strict reader for one partial-result file; every error is prefixed
/// origin:line.  Validates the manifest invariants (i < N,
/// begin <= end <= total, threads >= 1), the row cell sequence, that
/// each row text is one compact JSON object of scalar values, and the
/// row-count footer (a missing footer means a truncated upload).
ShardPartial parse_shard_partial(std::istream& in, const std::string& origin);

/// What merge_shards hands back: the preamble fields plus every grid
/// row's JSON text in canonical cell order, ready for
/// JsonSink::write_json.
struct MergedShards {
  std::string bench;
  std::size_t threads = 1;
  std::size_t shard_count = 1;
  std::vector<std::string> rows;
};

/// Validates that `partials` tile the grid exactly and concatenates
/// their row texts in canonical cell order.  Enumerated RequireErrors name
/// the offending files: fingerprint/bench/threads/total/shard-count
/// mismatches, gaps, and overlaps each have their own message.
MergedShards merge_shards(std::vector<ShardPartial> partials);

}  // namespace osp::api
