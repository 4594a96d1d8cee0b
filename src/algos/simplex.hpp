// A small dense simplex solver for packing linear programs.
//
// Solves  max c·x  s.t.  Ax <= b,  x >= 0  with b >= 0, which covers the
// LP relaxation of the paper's integer program (1): rows are elements with
// right-hand side b(u), plus x_i <= 1 rows.  Because b >= 0 the all-slack
// basis is feasible and no phase-1 is needed.  Bland's rule terminates in
// exact arithmetic, but on this floating-point tableau a lemma9 ell = 3
// instance (762 rows, 81 columns) had not returned after more than 10
// minutes of CPU, so a solve gives up after kSimplexPivotsPerDimension
// pivots per row and column.  Intended for the instance sizes of the
// benchmark harness (hundreds of rows/columns), not industrial scale.
#pragma once

#include <cstdint>
#include <vector>

namespace osp {

/// Outcome of a simplex solve.
struct LpResult {
  enum class Status { kOptimal, kUnbounded };
  Status status = Status::kOptimal;
  double value = 0.0;            // objective at optimum
  std::vector<double> x;         // primal solution (size = #vars)
  std::uint64_t pivots = 0;      // iterations used
};

/// The pivot limit of simplex_maximize, per row and per column of the LP:
/// an LP with m rows and n columns may pivot 4 * (m + n) times.  The LPs
/// behind the committed artifacts and the test suite take at most 0.7 per
/// row and column.
constexpr std::uint64_t kSimplexPivotsPerDimension = 4;

/// Dense LP: max c·x s.t. A x <= b, x >= 0.  `a` is row-major with
/// rows.size() == b.size() and every row sized c.size().
/// Requires all entries of b to be non-negative.  Throws RequireError,
/// with a one-line message, when the pivot limit is reached.
LpResult simplex_maximize(const std::vector<std::vector<double>>& a,
                          const std::vector<double>& b,
                          const std::vector<double>& c);

}  // namespace osp
