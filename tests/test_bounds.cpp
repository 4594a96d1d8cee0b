// Tests for the bound calculators: hand-computed values and structural
// relationships between the bounds.
#include <gtest/gtest.h>

#include <cmath>

#include "core/bounds.hpp"
#include "core/game.hpp"
#include "gen/random_instances.hpp"
#include "core/rand_pr.hpp"
#include "algos/offline.hpp"
#include "stats/summary.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

InstanceStats uniform_stats(std::size_t k, std::size_t sigma, std::size_t m,
                            std::size_t n) {
  InstanceStats st;
  st.num_sets = m;
  st.num_elements = n;
  st.total_weight = static_cast<double>(m);
  st.k_max = k;
  st.k_avg = static_cast<double>(k);
  st.sigma_max = sigma;
  st.sigma_avg = static_cast<double>(sigma);
  st.sigma_sq_avg = static_cast<double>(sigma * sigma);
  st.sigma_w_avg = static_cast<double>(sigma);       // unit weights
  st.sigma_sigma_w_avg = static_cast<double>(sigma * sigma);
  st.nu_avg = static_cast<double>(sigma);
  st.nu_max = static_cast<double>(sigma);
  st.nu_sigma_w_avg = static_cast<double>(sigma * sigma);
  st.uniform_size = st.uniform_load = st.unweighted = true;
  return st;
}

TEST(Bounds, Theorem1OnUniformStats) {
  // With uniform load σ and unit weights: kmax * sqrt(σ²·/σ) = k√σ.
  InstanceStats st = uniform_stats(3, 4, 12, 9);
  EXPECT_NEAR(theorem1_bound(st), 3.0 * 2.0, 1e-12);
}

TEST(Bounds, Corollary6Formula) {
  InstanceStats st = uniform_stats(5, 9, 10, 10);
  EXPECT_NEAR(corollary6_bound(st), 5.0 * 3.0, 1e-12);
}

TEST(Bounds, Theorem1NeverExceedsCorollary6) {
  Rng master(1);
  for (int trial = 0; trial < 20; ++trial) {
    Rng gen = master.split(trial);
    Instance inst = random_instance(
        20, 25, 2 + trial % 4,
        trial % 2 ? WeightModel::uniform(1, 9) : WeightModel::unit(), gen);
    InstanceStats st = inst.stats();
    EXPECT_LE(theorem1_bound(st), corollary6_bound(st) + 1e-9);
  }
}

TEST(Bounds, Theorem4ShapeVsBoundConstant) {
  InstanceStats st = uniform_stats(3, 4, 12, 9);
  EXPECT_NEAR(theorem4_bound(st) / theorem4_shape(st), 16.0 * std::exp(1.0),
              1e-9);
}

TEST(Bounds, Theorem4EqualsTheorem1ShapeAtUnitCapacity) {
  // With b ≡ 1 the adjusted load equals the load, so the Theorem 4 shape
  // reduces to the Theorem 1 expression.
  Rng master(2);
  Instance inst =
      random_instance(15, 20, 3, WeightModel::uniform(1, 5), master);
  InstanceStats st = inst.stats();
  EXPECT_NEAR(theorem4_shape(st), theorem1_bound(st), 1e-9);
}

TEST(Bounds, Theorem5RequiresUniformSize) {
  InstanceStats st = uniform_stats(3, 4, 12, 9);
  EXPECT_NO_THROW(theorem5_bound(st));
  st.uniform_size = false;
  EXPECT_THROW(theorem5_bound(st), RequireError);
}

TEST(Bounds, Theorem5EqualsKForUniformLoad) {
  // avg(σ²)/avg(σ)² = 1 when loads are uniform — Corollary 7.
  InstanceStats st = uniform_stats(4, 6, 12, 8);
  EXPECT_NEAR(theorem5_bound(st), 4.0, 1e-12);
  EXPECT_NEAR(corollary7_bound(st), 4.0, 1e-12);
}

TEST(Bounds, Corollary7RequiresBothUniform) {
  InstanceStats st = uniform_stats(3, 4, 12, 9);
  st.uniform_load = false;
  EXPECT_THROW(corollary7_bound(st), RequireError);
}

TEST(Bounds, Theorem6Formula) {
  InstanceStats st = uniform_stats(3, 9, 12, 4);
  EXPECT_NEAR(theorem6_bound(st), 3.0 * 3.0, 1e-12);
}

TEST(Bounds, Theorem3Values) {
  EXPECT_DOUBLE_EQ(theorem3_lower_bound(2, 1), 1.0);
  EXPECT_DOUBLE_EQ(theorem3_lower_bound(2, 4), 8.0);
  EXPECT_DOUBLE_EQ(theorem3_lower_bound(3, 3), 9.0);
  EXPECT_DOUBLE_EQ(theorem3_lower_bound(10, 2), 10.0);
}

TEST(Bounds, Theorem2GrowsWithParameters) {
  EXPECT_LT(theorem2_lower_bound(10, 10), theorem2_lower_bound(100, 10));
  EXPECT_LT(theorem2_lower_bound(100, 10), theorem2_lower_bound(100, 100));
  EXPECT_GT(theorem2_lower_bound(4, 4), 0.0);
}

TEST(Bounds, NaiveDominatesCorollary6) {
  // kσ >= k√σ whenever σ >= 1.
  Rng master(3);
  for (int trial = 0; trial < 10; ++trial) {
    Rng gen = master.split(trial);
    Instance inst = random_instance(18, 20, 3, WeightModel::unit(), gen);
    InstanceStats st = inst.stats();
    EXPECT_GE(naive_bound(st) + 1e-9, corollary6_bound(st));
  }
}

TEST(LemmaBounds, ProofStructureHoldsEmpirically) {
  // The actual proof of Theorem 1: E[w(alg)] must exceed BOTH Lemma 4's
  // and Lemma 5's floors on every instance.  Check statistically.
  Rng master(6);
  for (int trial = 0; trial < 6; ++trial) {
    Rng gen = master.split(trial);
    Instance inst = random_instance(
        16, 20, 3, trial % 2 ? WeightModel::uniform(1, 6)
                             : WeightModel::unit(), gen);
    InstanceStats st = inst.stats();
    OfflineResult opt = exact_optimum(inst);
    ASSERT_TRUE(opt.exact);

    RunningStat benefit;
    Rng runs = master.split(100 + trial);
    for (int t = 0; t < 400; ++t) {
      RandPr alg(runs.split(t));
      benefit.add(play(inst, alg).benefit);
    }
    double floor = theorem1_benefit_floor(st, opt.value);
    EXPECT_GE(benefit.mean() + benefit.ci95_halfwidth(), floor)
        << inst.describe();
    EXPECT_GE(benefit.mean() + benefit.ci95_halfwidth(),
              lemma4_lower_bound(st, opt.value));
    EXPECT_GE(benefit.mean() + benefit.ci95_halfwidth(),
              lemma5_lower_bound(st));
  }
}

TEST(LemmaBounds, HandValues) {
  InstanceStats st = uniform_stats(3, 4, 12, 9);
  // Lemma 4 with opt = 6: 36 / (3 * 12) = 1.
  EXPECT_NEAR(lemma4_lower_bound(st, 6.0), 1.0, 1e-12);
  // Lemma 5: 144 / (9 * 16) = 1.
  EXPECT_NEAR(lemma5_lower_bound(st), 1.0, 1e-12);
  EXPECT_NEAR(theorem1_benefit_floor(st, 6.0), 1.0, 1e-12);
}

}  // namespace
}  // namespace osp
