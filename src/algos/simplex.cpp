#include "algos/simplex.hpp"

#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace osp {

namespace {
constexpr double kEps = 1e-9;
}

LpResult simplex_maximize(const std::vector<std::vector<double>>& a,
                          const std::vector<double>& b,
                          const std::vector<double>& c) {
  const std::size_t m = b.size();
  const std::size_t n = c.size();
  OSP_REQUIRE(a.size() == m);
  for (const auto& row : a) OSP_REQUIRE(row.size() == n);
  for (double bi : b) OSP_REQUIRE_MSG(bi >= 0, "simplex needs b >= 0");

  // Tableau: m rows of [A | I | b]; objective row holds reduced costs.
  // Columns 0..n-1 are structural, n..n+m-1 slacks, last column is rhs.
  const std::size_t cols = n + m + 1;
  std::vector<std::vector<double>> t(m + 1, std::vector<double>(cols, 0.0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) t[i][j] = a[i][j];
    t[i][n + i] = 1.0;
    t[i][cols - 1] = b[i];
  }
  // Objective row: we maximize, so store -c and drive entries negative.
  for (std::size_t j = 0; j < n; ++j) t[m][j] = -c[j];

  std::vector<std::size_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = n + i;

  const std::uint64_t pivot_limit = kSimplexPivotsPerDimension * (m + n);
  LpResult res;
  while (true) {
    // Bland's rule: entering variable = lowest index with negative
    // reduced cost.
    std::size_t pivot_col = cols;  // sentinel
    for (std::size_t j = 0; j + 1 < cols; ++j) {
      if (t[m][j] < -kEps) {
        pivot_col = j;
        break;
      }
    }
    if (pivot_col == cols) break;  // optimal
    OSP_REQUIRE_MSG(res.pivots < pivot_limit,
                    "simplex stopped at its pivot limit of "
                        << pivot_limit << " (" << kSimplexPivotsPerDimension
                        << " per row and column of a " << m << " x " << n
                        << " LP) without an optimum");

    // Ratio test; ties by lowest basis index (Bland).
    std::size_t pivot_row = m;  // sentinel
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < m; ++i) {
      if (t[i][pivot_col] > kEps) {
        double ratio = t[i][cols - 1] / t[i][pivot_col];
        if (ratio < best_ratio - kEps ||
            (std::abs(ratio - best_ratio) <= kEps &&
             (pivot_row == m || basis[i] < basis[pivot_row]))) {
          best_ratio = ratio;
          pivot_row = i;
        }
      }
    }
    if (pivot_row == m) {
      res.status = LpResult::Status::kUnbounded;
      return res;
    }

    // Pivot.
    double pv = t[pivot_row][pivot_col];
    for (double& v : t[pivot_row]) v /= pv;
    for (std::size_t i = 0; i <= m; ++i) {
      if (i == pivot_row) continue;
      double f = t[i][pivot_col];
      if (std::abs(f) <= kEps) continue;
      for (std::size_t j = 0; j < cols; ++j) t[i][j] -= f * t[pivot_row][j];
    }
    basis[pivot_row] = pivot_col;
    ++res.pivots;
  }

  res.status = LpResult::Status::kOptimal;
  res.x.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    if (basis[i] < n) res.x[basis[i]] = t[i][cols - 1];
  res.value = 0.0;
  for (std::size_t j = 0; j < n; ++j) res.value += c[j] * res.x[j];
  return res;
}

}  // namespace osp
