// The benchmark's workloads and the loop that times them.
//
// A run builds the workload's inputs from the seed several times (set-up),
// then repeats fixed rounds of operations until the time budget is spent,
// then checks outputs against the oracles.  Operations are trials
// (engine-overload), one-cell grid slices (grid-small) or serve calls
// (serve-overload).  Every round of one seed must produce identical
// results; run_workload compares each round with the first.  Untraced runs
// report the end-to-end metrics; traced runs alternate untraced and traced
// rounds and report the per-layer metrics plus the tracing overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  // span dumps of traced runs
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string note;  // sample count, or the end-to-end metric it moves
};

struct Report {
  std::string workload;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::vector<std::string> lines;  // human-readable context lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages
};

const std::vector<std::string>& workload_names();

/// Runs one named workload; throws std::invalid_argument on an unknown name.
Report run_workload(const Options& options);

}  // namespace perfbench
