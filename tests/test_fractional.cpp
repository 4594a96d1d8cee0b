// Tests for the online fractional packing comparator.
#include <gtest/gtest.h>

#include "algos/fractional.hpp"
#include "algos/offline.hpp"
#include "gen/random_instances.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

TEST(Fractional, NoContentionKeepsEverything) {
  InstanceBuilder b;
  b.add_sets(3, 2.0);
  for (SetId s = 0; s < 3; ++s) b.add_element({s});
  Instance inst = b.build();
  FractionalOutcome out = fractional_online(inst);
  EXPECT_DOUBLE_EQ(out.value, 6.0);
  EXPECT_EQ(out.scaled_rows, 0u);
  for (double v : out.x) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Fractional, SingleContestedElementSplitsEvenly) {
  InstanceBuilder b;
  b.add_sets(4);
  b.add_element({0, 1, 2, 3});
  Instance inst = b.build();
  FractionalOutcome out = fractional_online(inst);
  EXPECT_NEAR(out.value, 1.0, 1e-12);  // 4 * 1/4
  for (double v : out.x) EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(Fractional, RespectsCapacity) {
  InstanceBuilder b;
  b.add_sets(4);
  b.add_element({0, 1, 2, 3}, 2);
  Instance inst = b.build();
  FractionalOutcome out = fractional_online(inst);
  EXPECT_NEAR(out.value, 2.0, 1e-12);
  EXPECT_TRUE(fractional_feasible(inst, out.x));
}

TEST(Fractional, AlwaysFeasibleOnRandomInstances) {
  Rng master(1);
  for (int trial = 0; trial < 20; ++trial) {
    Rng gen = master.split(trial);
    Instance inst = random_capacity_instance(
        25, 25, 3, 3, WeightModel::uniform(1, 6), gen);
    FractionalOutcome out = fractional_online(inst);
    EXPECT_TRUE(fractional_feasible(inst, out.x)) << inst.describe();
  }
}

TEST(Fractional, SandwichedBetweenIntegralOptAndLp) {
  // On most instances fractional-online lands between the integral
  // optimum scaled down and the LP bound; at minimum it must never
  // exceed the LP optimum.
  Rng master(2);
  for (int trial = 0; trial < 12; ++trial) {
    Rng gen = master.split(trial);
    Instance inst = random_instance(14, 18, 3, WeightModel::unit(), gen);
    FractionalOutcome frac = fractional_online(inst);
    double lp = lp_upper_bound(inst);
    EXPECT_LE(frac.value, lp + 1e-7) << inst.describe();
    EXPECT_GE(frac.value, 0.0);
  }
}

TEST(Fractional, MonotoneDecreaseOnly) {
  // Once an element forces x down, later elements can only push lower:
  // replaying a prefix gives x >= the full run's x, coordinate-wise.
  Rng gen(3);
  Instance full = random_instance(15, 20, 3, WeightModel::unit(), gen);
  FractionalOutcome whole = fractional_online(full);

  InstanceBuilder b;
  for (SetId s = 0; s < full.num_sets(); ++s) b.add_set(full.weight(s));
  for (ElementId u = 0; u + 5 < full.num_elements(); ++u)
    b.add_element(full.arrival(u).parents.to_vector(),
                  full.arrival(u).capacity);
  Instance prefix = b.build();
  FractionalOutcome part = fractional_online(prefix);
  for (SetId s = 0; s < full.num_sets(); ++s)
    EXPECT_GE(part.x[s] + 1e-12, whole.x[s]);
}

TEST(Fractional, BeatsIntegralOnlineOnHardInstances) {
  // On the σ-clique (one element shared by all sets, then singleton
  // completions), integral online gets 1 set while fractional keeps
  // 1/m of each — equal value here, but the fractional value can never
  // be smaller than 1 set when weights are uniform.
  InstanceBuilder b;
  const std::size_t m = 8;
  b.add_sets(m);
  std::vector<SetId> all;
  for (SetId s = 0; s < m; ++s) all.push_back(s);
  b.add_element(all);
  for (SetId s = 0; s < m; ++s) b.add_element({s});
  Instance inst = b.build();
  FractionalOutcome out = fractional_online(inst);
  EXPECT_NEAR(out.value, 1.0, 1e-9);
}

}  // namespace
}  // namespace osp
