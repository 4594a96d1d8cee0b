// Wall-clock timing for the measurement layer.
//
// The one place outside the random-number code that reads a clock
// (osp_lint's raw-random rule keeps clocks out of the rest of src/), so
// wall time can never reach a decision path: the benches, the CLI and
// the api Session's timed runs all measure through this.
#pragma once

#include <chrono>

namespace osp {

/// Starts timing at construction; seconds() reads the elapsed time.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the measurement from now.
  void restart() { start_ = Clock::now(); }

  /// Seconds since construction or the last restart().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace osp
