// Shared helpers for the experiment binaries.
//
// Each bench prints one or more tables in the uniform Table format with a
// header naming the paper exhibit it reproduces, so the collected output
// (bench_output.txt) reads as the paper's evaluation section.
//
// Everything heavyweight lives in the experiment API layer (src/api):
// policies come from api::policies(), workload shapes from
// api::scenarios(), trial loops run through api::Session (the shared
// multi-threaded batch runner with the seed repo's exact per-trial Rng
// streams), and BENCH_*.json artifacts stream through api::JsonSink —
// one writer for every bench.  This header only keeps the console
// plumbing each binary shares.
#pragma once

#include <exception>
#include <iostream>
#include <string>

#include "api/policy_registry.hpp"
#include "api/result_sink.hpp"
#include "api/scenario.hpp"
#include "api/session.hpp"
#include "engine/trial.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "util/rng.hpp"

namespace osp::bench {

/// Every bench's main: runs `body` and returns 0, or prints an escaping
/// exception as one line, "error: <message>", and returns 1 — an
/// artifact that cannot be written or a ratio cell whose optimum cannot
/// be proven must not end the process in std::terminate.
template <class Body>
int guarded_main(Body&& body) {
  try {
    body();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

/// Prints the standard experiment banner.
inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "\n=== " << id << " ===\n" << claim << "\n\n";
}

/// The process-wide Session every bench shares (shared batch runner).
inline api::Session& session() {
  static api::Session s;
  return s;
}

/// A registry policy as an engine column named by its display label
/// (policy->name()), which the bench rows key on: the policy itself is
/// the one source of truth.
inline engine::AlgSpec display_column(const std::string& spec) {
  const api::PolicyFactory& make = api::policies().at(spec).make;
  return engine::AlgSpec{make(Rng(0))->name(), make};
}

/// "12.3 ±0.4" formatting for a measured mean.
inline std::string fmt_mean_ci(const RunningStat& s, int precision = 2) {
  return fmt(s.mean(), precision) + " ±" +
         fmt(s.ci95_halfwidth(), precision);
}

}  // namespace osp::bench
