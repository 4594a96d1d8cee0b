// Tests for the dense simplex solver.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "algos/simplex.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

TEST(Simplex, TextbookTwoVariable) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 — optimum at (4, 0), value 12.
  LpResult r = simplex_maximize({{1, 1}, {1, 3}}, {4, 6}, {3, 2});
  ASSERT_EQ(r.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(r.value, 12.0, 1e-9);
  EXPECT_NEAR(r.x[0], 4.0, 1e-9);
  EXPECT_NEAR(r.x[1], 0.0, 1e-9);
}

TEST(Simplex, InteriorOptimum) {
  // max x + y s.t. x <= 2, y <= 3, x + y <= 4 — optimum 4 on the edge.
  LpResult r = simplex_maximize({{1, 0}, {0, 1}, {1, 1}}, {2, 3, 4}, {1, 1});
  ASSERT_EQ(r.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(r.value, 4.0, 1e-9);
}

TEST(Simplex, UnboundedDetected) {
  // max x with no constraint limiting x.
  LpResult r = simplex_maximize({{0}}, {1}, {1});
  EXPECT_EQ(r.status, LpResult::Status::kUnbounded);
}

TEST(Simplex, ZeroObjective) {
  LpResult r = simplex_maximize({{1}}, {5}, {0});
  ASSERT_EQ(r.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(r.value, 0.0, 1e-9);
}

TEST(Simplex, DegenerateRhsZero) {
  // b = 0 rows force x = 0; Bland's rule must not cycle.
  LpResult r = simplex_maximize({{1, 1}, {1, -1}}, {0, 0}, {1, 0});
  ASSERT_EQ(r.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(r.value, 0.0, 1e-9);
}

TEST(Simplex, RejectsNegativeRhs) {
  EXPECT_THROW(simplex_maximize({{1}}, {-1}, {1}), RequireError);
}

TEST(Simplex, RejectsRaggedMatrix) {
  EXPECT_THROW(simplex_maximize({{1, 2}, {1}}, {1, 1}, {1, 1}), RequireError);
}

TEST(Simplex, MatchingLpHalfIntegral) {
  // Fractional matching on a triangle: max x01+x02+x12, each vertex row
  // sums <= 1.  LP optimum is 3/2 (half-integral), IP optimum 1.
  LpResult r = simplex_maximize(
      {{1, 1, 0}, {1, 0, 1}, {0, 1, 1}}, {1, 1, 1}, {1, 1, 1});
  ASSERT_EQ(r.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(r.value, 1.5, 1e-9);
}

TEST(Simplex, SolutionIsFeasible) {
  // Random packing LPs: returned x must satisfy Ax <= b and x >= 0.
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t rows = 8, cols = 6;
    std::vector<std::vector<double>> a(rows, std::vector<double>(cols));
    std::vector<double> b(rows), c(cols);
    for (auto& row : a)
      for (auto& v : row) v = rng.chance(0.4) ? 1.0 : 0.0;
    // Guarantee every column is bounded so the LP cannot be unbounded.
    for (std::size_t j = 0; j < cols; ++j) a[0][j] = 1.0;
    for (auto& v : b) v = 1.0 + rng.below(3);
    for (auto& v : c) v = 0.5 + rng.uniform() * 2;
    LpResult r = simplex_maximize(a, b, c);
    ASSERT_EQ(r.status, LpResult::Status::kOptimal);
    for (double x : r.x) EXPECT_GE(x, -1e-9);
    for (std::size_t i = 0; i < rows; ++i) {
      double lhs = 0;
      for (std::size_t j = 0; j < cols; ++j) lhs += a[i][j] * r.x[j];
      EXPECT_LE(lhs, b[i] + 1e-7);
    }
  }
}

TEST(Simplex, ValueMatchesRecomputation) {
  LpResult r = simplex_maximize({{2, 1}, {1, 3}}, {8, 9}, {5, 4});
  ASSERT_EQ(r.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(r.value, 5 * r.x[0] + 4 * r.x[1], 1e-9);
}

// The Klee-Minty cube of dimension n: max sum 2^(n-1-i) x_i subject to
// sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^(i+1), with optimum 5^n.  Bland's
// rule walks a number of its vertices that grows exponentially with n:
// 41, 67, 109, 177, 287 and 465 pivots at n = 7 to 12.
LpResult klee_minty(std::size_t n) {
  std::vector<std::vector<double>> a(n, std::vector<double>(n, 0.0));
  std::vector<double> b(n), c(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j)
      a[i][j] = std::ldexp(1.0, static_cast<int>(i - j + 1));
    a[i][i] = 1.0;
    b[i] = std::pow(5.0, static_cast<double>(i + 1));
    c[i] = std::ldexp(1.0, static_cast<int>(n - 1 - i));
  }
  return simplex_maximize(a, b, c);
}

TEST(Simplex, PivotLimitEndsAStalledSolveWithOneLine) {
  // Dimension 7 takes 41 pivots, under its limit of 4 * (7 + 7).
  const LpResult small = klee_minty(7);
  ASSERT_EQ(small.status, LpResult::Status::kOptimal);
  EXPECT_NEAR(small.value, std::pow(5.0, 7), 1e-6);
  EXPECT_LT(small.pivots, kSimplexPivotsPerDimension * 14);

  // Dimension 12 needs 465 pivots; the solve stops at 96.
  try {
    klee_minty(12);
    FAIL() << "expected the pivot limit";
  } catch (const RequireError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("pivot limit of 96"), std::string::npos)
        << message;
    EXPECT_EQ(message.find('\n'), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace osp
