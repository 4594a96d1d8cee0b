// Multi-threaded batch runner shared by every experiment binary.
//
// The seed repo duplicated a serial trial loop in all thirteen benches;
// this runner centralizes it: a pool of workers pulls trial indices from
// an atomic counter and writes results into a preallocated, index-ordered
// vector, so the output is bit-identical for any thread count (results
// never depend on scheduling, and all randomness is seeded per trial from
// grid coordinates — see trial.hpp).  Each worker owns a TrialContext
// whose engine scratch persists across trials, so a steady-state trial
// allocates only its Outcome and what a policy's reseed() rebuilds (see
// run_play_trial_cached); the trial bodies drive the block-stepped engine
// (decide_batch over CSR arrival blocks), so each worker amortizes the
// decision dispatch over whole blocks as well.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/trial.hpp"

namespace osp::engine {

struct BatchOptions {
  /// Worker count; 0 means use the hardware concurrency (overridable via
  /// the OSP_THREADS environment variable, useful on shared CI boxes).
  std::size_t num_threads = 0;
};

/// The most worker threads OSP_THREADS (and osp_cli's --workers) accepts.
constexpr std::size_t kMaxThreads = 256;

/// Resolves `requested` (0 = auto) against OSP_THREADS and the hardware:
/// an OSP_THREADS that is set and not empty must be an integer in
/// [1, kMaxThreads], or this throws RequireError.
std::size_t resolve_num_threads(std::size_t requested);

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {})
      : num_threads_(resolve_num_threads(options.num_threads)) {}

  std::size_t num_threads() const { return num_threads_; }

  /// Evaluates fn(index, ctx) for every index in [0, count), in parallel,
  /// and returns the results in index order.  `Result` must be default-
  /// constructible and move-assignable.  The first exception thrown by any
  /// trial is rethrown on the caller's thread after all workers join.
  template <class Result, class Fn>
  std::vector<Result> map(std::size_t count, Fn&& fn) const {
    std::vector<Result> results(count);
    if (count == 0) return results;

    const std::size_t workers =
        std::min<std::size_t>(num_threads_, count);
    if (workers <= 1) {
      TrialContext ctx;
      for (std::size_t i = 0; i < count; ++i) results[i] = fn(i, ctx);
      return results;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto worker = [&](std::size_t thread_index) {
      TrialContext ctx;
      ctx.thread_index = thread_index;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          results[i] = fn(i, ctx);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          // Drain remaining indices quickly: park the counter at the end.
          next.store(count, std::memory_order_relaxed);
          return;
        }
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t)
      threads.emplace_back(worker, t);
    for (auto& th : threads) th.join();
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

 private:
  std::size_t num_threads_;
};

/// Process-wide default runner (hardware threads); what bench_common and
/// the router benches use so every binary shares one configuration.
const BatchRunner& shared_runner();

}  // namespace osp::engine
