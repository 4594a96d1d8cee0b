// Tests for randPr: Lemma 1 (survival probability = w(S)/w(N[S])),
// the Theorem 1 / Corollary 6 guarantees as statistical properties over
// random instance families, the hashed (distributed) variant, and the
// block selection kernel against per-row selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include "algos/offline.hpp"
#include "core/bounds.hpp"
#include "core/csr.hpp"
#include "core/game.hpp"
#include "core/priority.hpp"
#include "core/rand_pr.hpp"
#include "gen/random_instances.hpp"
#include "stats/summary.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

// The paper's Lemma 1 example system: S0 overlapping S1 and S2.
//   S0 = {e0, e1}, S1 = {e0}, S2 = {e1}; weights w0, w1, w2.
Instance chain(double w0, double w1, double w2) {
  InstanceBuilder b;
  b.add_set(w0);
  b.add_set(w1);
  b.add_set(w2);
  b.add_element({0, 1});
  b.add_element({0, 2});
  return b.build();
}

double empirical_survival(const Instance& inst, SetId s, int trials,
                          std::uint64_t seed) {
  Rng master(seed);
  int wins = 0;
  for (int t = 0; t < trials; ++t) {
    RandPr alg(master.split(t));
    if (play(inst, alg).completed_mask[s]) ++wins;
  }
  return static_cast<double>(wins) / trials;
}

TEST(Lemma1, UnweightedChain) {
  // w(N[S0]) = 3, so Pr[S0 completes] = 1/3.
  Instance inst = chain(1, 1, 1);
  EXPECT_NEAR(empirical_survival(inst, 0, 30000, 1), 1.0 / 3.0, 0.01);
}

TEST(Lemma1, WeightedChain) {
  // Pr[S0] = w0 / (w0 + w1 + w2) = 2 / 7.
  Instance inst = chain(2, 4, 1);
  EXPECT_NEAR(empirical_survival(inst, 0, 30000, 2), 2.0 / 7.0, 0.01);
}

TEST(Lemma1, LeafSets) {
  // S1 competes only with S0: Pr[S1] = w1/(w0+w1) = 4/6.
  Instance inst = chain(2, 4, 1);
  EXPECT_NEAR(empirical_survival(inst, 1, 30000, 3), 4.0 / 6.0, 0.01);
}

TEST(Lemma1, CliqueOfThree) {
  // Three sets sharing one element: survival 1/3 each (unweighted).
  InstanceBuilder b;
  b.add_sets(3);
  b.add_element({0, 1, 2});
  Instance inst = b.build();
  for (SetId s = 0; s < 3; ++s)
    EXPECT_NEAR(empirical_survival(inst, s, 20000, 10 + s), 1.0 / 3.0, 0.012);
}

TEST(Lemma1, RepeatIntersectionsAreNotWorse) {
  // Lemma 10's monotonicity: meeting the SAME set twice is no worse than
  // meeting fresh sets.  S0={e0,e1}, S1={e0,e1} (twice) vs split rivals.
  InstanceBuilder b;
  b.add_sets(2);
  b.add_element({0, 1});
  b.add_element({0, 1});
  Instance twice = b.build();
  // Repeat rival: Pr[S0] = 1/2 (one comparison decides both elements) —
  // better than the 1/3 the Lemma 1 formula would give for fresh rivals.
  EXPECT_NEAR(empirical_survival(twice, 0, 30000, 4), 0.5, 0.01);
}

/// Exact w(N[S]): S plus every set sharing an element with it.
double closed_neighborhood_weight(const Instance& inst, SetId s) {
  std::vector<bool> in_nbhd(inst.num_sets(), false);
  in_nbhd[s] = true;
  for (ElementId u : inst.elements_of(s))
    for (SetId r : inst.arrival(u).parents) in_nbhd[r] = true;
  double w = 0;
  for (SetId r = 0; r < inst.num_sets(); ++r)
    if (in_nbhd[r]) w += inst.weight(r);
  return w;
}

TEST(Lemma1, EverySetOfStarsCliquesAndChainsSurvivesAtItsClosedForm) {
  // Pr[S completes] = w(S) / w(N[S]) for EVERY set of four overlap
  // structures, under true-random priorities and under the degree-8
  // polynomial hash (Section 3.1's distributed randPr).
  struct Structure {
    std::string name;
    Instance inst;
  };
  std::vector<Structure> structures;
  for (double hub : {1.0, 6.0}) {
    // Star: one hub set sharing one element with each of 4 leaves.
    InstanceBuilder b;
    b.add_set(hub);
    b.add_sets(4, 1.0);
    for (SetId leaf = 1; leaf <= 4; ++leaf) b.add_element({0, leaf});
    structures.push_back(
        {hub == 1.0 ? "star-4" : "star-4 hub w=6", b.build()});
  }
  {
    InstanceBuilder b;
    b.add_sets(5, 1.0);
    b.add_element({0, 1, 2, 3, 4});
    structures.push_back({"clique-5", b.build()});
  }
  structures.push_back({"chain w=(2,4,1)", chain(2, 4, 1)});

  const int trials = 30000;
  for (const Structure& st : structures) {
    const std::size_t m = st.inst.num_sets();
    std::vector<int> wins_rand(m, 0), wins_hash(m, 0);
    Rng master(2020);
    for (int t = 0; t < trials; ++t) {
      RandPr alg(master.split(t));
      for (SetId s : play(st.inst, alg).completed) ++wins_rand[s];
      Rng hr = master.split(1'000'000 + t);
      auto hashed = RandPr::with_polynomial(8, hr);
      for (SetId s : play(st.inst, *hashed).completed) ++wins_hash[s];
    }
    for (SetId s = 0; s < m; ++s) {
      const double predicted =
          st.inst.weight(s) / closed_neighborhood_weight(st.inst, s);
      EXPECT_NEAR(static_cast<double>(wins_rand[s]) / trials, predicted,
                  0.012)
          << st.name << " S" << s << " (randPr)";
      EXPECT_NEAR(static_cast<double>(wins_hash[s]) / trials, predicted,
                  0.015)
          << st.name << " S" << s << " (hashed, degree 8)";
    }
  }
}

TEST(RandPr, DeterministicGivenSeed) {
  Rng gen(5);
  Instance inst = random_instance(20, 40, 3, WeightModel::unit(), gen);
  RandPr a{Rng(123)}, b{Rng(123)};
  EXPECT_EQ(play(inst, a).completed, play(inst, b).completed);
}

TEST(Reseed, RandPrMatchesFreshConstruction) {
  // The reseed() contract: reseed(rng) + start() must be decision-
  // identical to a freshly constructed algorithm given the same rng —
  // what lets the batch runner reuse one policy object across trials.
  Rng gen(6);
  Instance warmup = random_instance(10, 15, 2, WeightModel::unit(), gen);
  Instance inst = random_instance(25, 50, 3, WeightModel::uniform(1, 5), gen);

  RandPr fresh{Rng(123)};
  RandPr reused{Rng(777)};
  EXPECT_TRUE(reused.reseedable());
  play(warmup, reused);  // consume randomness and warm internal arrays
  reused.reseed(Rng(123));
  EXPECT_EQ(play(inst, fresh).completed, play(inst, reused).completed);
}

TEST(Reseed, HashedRandPrFactoriesInstallARehashRecipe) {
  Rng gen(7);
  Instance warmup = random_instance(10, 15, 2, WeightModel::unit(), gen);
  Instance inst = random_instance(25, 50, 3, WeightModel::uniform(1, 5), gen);

  Rng fresh_rng(4242);
  auto fresh = RandPr::with_polynomial(8, fresh_rng);
  Rng other(1);
  auto reused = RandPr::with_polynomial(8, other);
  EXPECT_TRUE(reused->reseedable());
  play(warmup, *reused);
  reused->reseed(Rng(4242));
  EXPECT_EQ(play(inst, *fresh).completed, play(inst, *reused).completed);

  // A bare hashed RandPr has no recipe to rebuild its hash from an Rng.
  RandPr bare([](std::uint64_t) { return 0.5; }, "bare");
  EXPECT_FALSE(bare.reseedable());
  EXPECT_THROW(bare.reseed(Rng(1)), RequireError);
}

TEST(RandPr, NameReflectsOptions) {
  EXPECT_EQ(RandPr(Rng(1)).name(), "randPr");
  EXPECT_EQ(RandPr(Rng(1), {.filter_dead = true}).name(), "randPr/filt");
  EXPECT_EQ(RandPr(Rng(1), {.filter_dead = true, .allowed_misses = 2}).name(),
            "randPr/filt2");
  EXPECT_EQ(RandPr(Rng(1), {.ignore_weights = true}).name(), "randPr/unif");
}

TEST(RandPrOptions, KnobsThatWouldDoNothingAreRejected) {
  // A miss budget only matters to the dead-set filter.
  EXPECT_THROW(RandPr(Rng(1), {.allowed_misses = 1}), RequireError);
  Rng rng(2);
  EXPECT_THROW(RandPr::with_tabulation(rng, {.allowed_misses = 1}),
               RequireError);
  // Hashed priorities are a function of the set id: nothing to redraw.
  EXPECT_THROW(RandPr::with_polynomial(
                   8, rng, {.fresh_priorities_per_element = true}),
               RequireError);
  EXPECT_NO_THROW(RandPr(Rng(1), {.fresh_priorities_per_element = true}));
}

// Property sweep: on random families, E[w(alg)] >= opt / (kmax sqrt(smax))
// (Corollary 6) and >= opt / theorem1_bound.  We run enough trials that a
// violation by more than statistical noise would fail.
struct FamilyParam {
  std::size_t m, n, k;
  bool weighted;
};

class Guarantee : public ::testing::TestWithParam<FamilyParam> {};

TEST_P(Guarantee, Corollary6AndTheorem1) {
  const auto& p = GetParam();
  Rng master(p.m * 1000 + p.n * 10 + p.k);
  WeightModel wm =
      p.weighted ? WeightModel::uniform(1, 8) : WeightModel::unit();
  Instance inst = random_instance(p.m, p.n, p.k, wm, master);
  InstanceStats st = inst.stats();
  OfflineResult opt = exact_optimum(inst);
  ASSERT_TRUE(opt.exact);
  ASSERT_GT(opt.value, 0.0);

  RunningStat benefit;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    RandPr alg(master.split(t));
    benefit.add(play(inst, alg).benefit);
  }
  double guarantee_c6 = opt.value / corollary6_bound(st);
  double guarantee_t1 = opt.value / theorem1_bound(st);
  // Allow the 95% CI below the mean as statistical slack.
  double floor = benefit.mean() + benefit.ci95_halfwidth();
  EXPECT_GE(floor, guarantee_c6) << inst.describe();
  EXPECT_GE(floor, guarantee_t1) << inst.describe();
  // Theorem 1 is at least as sharp as Corollary 6.
  EXPECT_LE(theorem1_bound(st), corollary6_bound(st) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RandomFamilies, Guarantee,
    ::testing::Values(FamilyParam{10, 20, 2, false},
                      FamilyParam{15, 20, 3, false},
                      FamilyParam{20, 30, 4, false},
                      FamilyParam{12, 15, 3, true},
                      FamilyParam{18, 40, 2, true},
                      FamilyParam{25, 25, 3, false}));

TEST(RandPr, VariableCapacityGuarantee) {
  // Theorem 4: ratio <= 16e·kmax·sqrt(avg(νσ$)/avg(σ$)).
  Rng master(77);
  Instance inst =
      random_capacity_instance(18, 24, 3, 3, WeightModel::unit(), master);
  InstanceStats st = inst.stats();
  OfflineResult opt = exact_optimum(inst);
  ASSERT_TRUE(opt.exact);

  RunningStat benefit;
  for (int t = 0; t < 400; ++t) {
    RandPr alg(master.split(t));
    benefit.add(play(inst, alg).benefit);
  }
  double floor = benefit.mean() + benefit.ci95_halfwidth();
  EXPECT_GE(floor, opt.value / theorem4_bound(st));
}

TEST(HashedRandPr, MatchesLemma1Approximately) {
  // With a fresh polynomial hash per trial, survival probabilities match
  // the true-random analysis.
  Instance inst = chain(1, 1, 1);
  Rng master(31);
  int wins = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    Rng r = master.split(t);
    auto alg = RandPr::with_polynomial(8, r);
    if (play(inst, *alg).completed_mask[0]) ++wins;
  }
  EXPECT_NEAR(static_cast<double>(wins) / trials, 1.0 / 3.0, 0.015);
}

TEST(HashedRandPr, ConsistentAcrossRuns) {
  // The same hash function gives the same decisions — the property that
  // makes the distributed deployment work.
  Rng r(11);
  auto h = std::make_shared<PolynomialHash>(4, r);
  auto make = [&] {
    return RandPr(
        [h](std::uint64_t k) { return h->unit(k); }, "shared");
  };
  Rng gen(12);
  Instance inst = random_instance(30, 40, 3, WeightModel::unit(), gen);
  auto a1 = make(), a2 = make();
  EXPECT_EQ(play(inst, a1).completed, play(inst, a2).completed);
}

TEST(HashedRandPr, FamiliesAllRun) {
  Rng gen(13);
  Instance inst = random_instance(25, 30, 3, WeightModel::uniform(1, 5), gen);
  Rng r(14);
  auto poly = RandPr::with_polynomial(6, r);
  auto tab = RandPr::with_tabulation(r);
  auto ms = RandPr::with_multiply_shift(r);
  EXPECT_NO_THROW(play(inst, *poly));
  EXPECT_NO_THROW(play(inst, *tab));
  EXPECT_NO_THROW(play(inst, *ms));
  EXPECT_EQ(poly->name(), "hashPr/poly6");
}

TEST(RandPr, HashedKeySourceMatchesAnIndependentOracle) {
  // Every hashed randPr must key set s as rw_key_from_uniform(clamp(h(s)),
  // w, s) for its hash h — no Rng draw, the clamp into (0, 1), and the set
  // id as the tie — and must choose the top min(b(u), |C(u)|) candidates
  // under that key order.  The oracle rebuilds each factory's hash from an
  // equal-state copy of the Rng it consumed.
  using HashFn = RandPr::HashFn;
  struct Family {
    std::string name;
    std::function<std::unique_ptr<RandPr>(Rng&, RandPrOptions)> make;
    std::function<HashFn(Rng&)> oracle;
  };
  // Repeated values, both boundaries and values the clamp moves.
  const HashFn degenerate = [](std::uint64_t s) {
    static constexpr double kValues[] = {0.0, 1.0, 0.5, 0.5, 1.0 - 1e-16,
                                         1.0 - 1e-15, 0.25};
    return kValues[s % 7];
  };
  const auto unit = [](auto hash) -> HashFn {
    return [hash](std::uint64_t k) { return hash.unit(k); };
  };
  const std::vector<Family> families = {
      {"poly8",
       [](Rng& r, RandPrOptions o) { return RandPr::with_polynomial(8, r, o); },
       [unit](Rng& r) { return unit(PolynomialHash(8, r)); }},
      {"tab",
       [](Rng& r, RandPrOptions o) { return RandPr::with_tabulation(r, o); },
       [unit](Rng& r) { return unit(TabulationHash(r)); }},
      {"ms",
       [](Rng& r, RandPrOptions o) {
         return RandPr::with_multiply_shift(r, o);
       },
       [unit](Rng& r) { return unit(MultiplyShiftHash(r)); }},
      {"degenerate",
       [degenerate](Rng&, RandPrOptions o) {
         return std::make_unique<RandPr>(degenerate, "degenerate", o);
       },
       [degenerate](Rng&) { return degenerate; }},
  };

  Rng gen(2024);
  std::vector<SetId> out;
  for (int round = 0; round < 6; ++round) {
    const Instance inst = random_capacity_instance(
        30 + 10 * round, 40, 3, 3, WeightModel::uniform(1, 8), gen);
    std::vector<SetMeta> metas(inst.num_sets());
    for (SetId s = 0; s < inst.num_sets(); ++s)
      metas[s] = SetMeta{inst.weight(s), inst.set_size(s)};
    for (const Family& family : families) {
      for (const bool ignore_weights : {false, true}) {
        Rng policy_rng = gen.split(round);
        Rng oracle_rng = policy_rng;
        auto alg = family.make(policy_rng,
                               RandPrOptions{.ignore_weights = ignore_weights});
        const HashFn h = family.oracle(oracle_rng);
        const std::string where = family.name +
                                  (ignore_weights ? "/unif" : "") +
                                  " round " + std::to_string(round);

        std::vector<PriorityKey> want(inst.num_sets());
        for (SetId s = 0; s < inst.num_sets(); ++s) {
          const double w = ignore_weights ? 1.0 : inst.weight(s);
          want[s] = rw_key_from_uniform(
              std::clamp(h(s), 1e-15, 1.0 - 1e-15), w, s);
        }
        alg->start(metas);
        for (SetId s = 0; s < inst.num_sets(); ++s)
          ASSERT_EQ(alg->priority(s), want[s]) << where << " set " << s;

        for (ElementId u = 0; u < inst.num_elements(); ++u) {
          const Span<SetId> parents = inst.parents(u);
          std::vector<SetId> ranked(parents.begin(), parents.end());
          std::sort(ranked.begin(), ranked.end(),
                    [&](SetId a, SetId b) { return want[a] > want[b]; });
          ranked.resize(std::min<std::size_t>(inst.capacity(u),
                                              ranked.size()));
          std::sort(ranked.begin(), ranked.end());
          out.assign(parents.size(), 0);
          out.resize(alg->decide(u, inst.capacity(u), parents.data(),
                                 parents.size(), out.data()));
          std::sort(out.begin(), out.end());
          ASSERT_EQ(out, ranked) << where << " element " << u;
        }
      }
    }
  }
}

TEST(RandPrOptions, FilterDeadNeverHurtsOnAverage) {
  Rng master(99);
  Instance inst = random_instance(30, 25, 3, WeightModel::unit(), master);
  RunningStat plain, filtered;
  for (int t = 0; t < 600; ++t) {
    Rng seed = master.split(t);
    Rng seed2 = seed;  // same priorities for both variants
    RandPr a(seed);
    RandPr b(seed2, {.filter_dead = true});
    plain.add(play(inst, a).benefit);
    filtered.add(play(inst, b).benefit);
  }
  EXPECT_GE(filtered.mean() + filtered.ci95_halfwidth() +
                plain.ci95_halfwidth(),
            plain.mean());
}

TEST(HashedRandPr, FilterDeadOptionWorks) {
  // The hashed variant honours the same filtering knob as RandPr.
  Rng gen(41);
  Instance inst = random_instance(24, 20, 3, WeightModel::unit(), gen);
  Rng hr(42);
  auto h = std::make_shared<PolynomialHash>(6, hr);
  RandPr plain([h](std::uint64_t k) { return h->unit(k); }, "plain");
  RandPr filt([h](std::uint64_t k) { return h->unit(k); }, "filt",
              RandPrOptions{.filter_dead = true});
  Weight p = play(inst, plain).benefit;
  Weight f = play(inst, filt).benefit;
  // Same hash => same priorities; filtering can only help.
  EXPECT_GE(f, p);
}

TEST(RandPrOptions, AllowedMissesRelaxesFilter) {
  // With a miss budget the filter keeps serving a once-missed set.
  InstanceBuilder b;
  b.add_sets(2);
  b.add_element({0, 1});  // one of the two misses here
  b.add_element({0, 1});  // strict filter ignores the loser here...
  Instance inst = b.build();
  Rng seed(5);
  RandPr strict(seed, {.filter_dead = true, .allowed_misses = 0});
  Outcome out = play(inst, strict);
  // Strict: loser of element 0 is filtered at element 1, so exactly one
  // set gets both elements and completes.
  EXPECT_EQ(out.completed.size(), 1u);
  EXPECT_EQ(out.decisions, 2u);

  Rng seed2(5);
  RandPr lax(seed2, {.filter_dead = true, .allowed_misses = 1});
  Outcome out2 = play(inst, lax);
  // Budget 1: the loser is still a candidate at element 1 but ranks
  // below the winner (same priorities), so the outcome matches.
  EXPECT_EQ(out2.completed, out.completed);
}

TEST(RandPrOptions, IgnoreWeightsHurtsOnWeightedInput) {
  // On a strongly weighted instance, R_w priorities should beat uniform
  // priorities (that is the whole point of the distribution).
  InstanceBuilder b;
  b.add_set(50.0);  // heavy set
  for (int i = 0; i < 9; ++i) b.add_set(1.0);
  // The heavy set collides with every light set once.
  for (SetId s = 1; s < 10; ++s)
    b.add_element({0, s});
  Instance inst = b.build();

  Rng master(123);
  RunningStat with_w, without_w;
  for (int t = 0; t < 4000; ++t) {
    RandPr a(master.split(t));
    RandPr u(master.split(t + 1'000'000), {.ignore_weights = true});
    with_w.add(play(inst, a).benefit);
    without_w.add(play(inst, u).benefit);
  }
  EXPECT_GT(with_w.mean(), without_w.mean() * 1.5);
}

TEST(RandPr, PrioritiesPersistAcrossElements) {
  // The same set must win or lose consistently: if S beats S' at one
  // element it beats S' at every element (fixed priorities).
  Rng gen(55);
  InstanceBuilder b;
  b.add_sets(2);
  for (int i = 0; i < 6; ++i) b.add_element({0, 1});
  Instance inst = b.build();
  for (int t = 0; t < 50; ++t) {
    RandPr alg(gen.split(t));
    Outcome out = play(inst, alg);
    // Exactly one of the two sets completes — never zero.
    EXPECT_EQ(out.completed.size(), 1u);
  }
}

TEST(RandPr, FreshPrioritiesBreakConsistency) {
  // Negative control: redrawing priorities per element almost never
  // completes a set that shares all 6 elements with a rival.
  Rng gen(56);
  InstanceBuilder b;
  b.add_sets(2);
  for (int i = 0; i < 6; ++i) b.add_element({0, 1});
  Instance inst = b.build();
  int completions = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    RandPr alg(gen.split(t), {.fresh_priorities_per_element = true});
    completions += static_cast<int>(play(inst, alg).completed.size());
  }
  // Pr[win all 6 coin flips] = 2 * (1/2)^6 ≈ 0.031 per trial.
  EXPECT_LT(completions, trials / 10);
}

// ------------------------------------------------------------------
// Block selection kernel

/// Key spacing below the quantized rank's resolution: the rank keeps the
/// top 32 bits of the order-preserving u64 image, so keys a few of these
/// apart share a rank yet stay distinct doubles.
constexpr double kSubRankStep = 0x1p-40;

/// A random mixed-capacity arrival block over SoA priorities.
struct BlockCase {
  std::vector<Capacity> caps;
  std::vector<std::size_t> offsets;
  std::vector<SetId> cands;
  std::vector<double> keys;
  std::vector<std::uint64_t> ties;
  std::vector<std::uint32_t> qranks;

  ArrivalBlock block() const {
    ArrivalBlock b;
    b.first = 0;
    b.count = caps.size();
    b.capacities = caps.data();
    b.candidates = cands.data();
    b.offsets = offsets.data();
    return b;
  }
};

BlockCase random_block_case(Rng& rng, bool craft_collisions) {
  BlockCase c;
  const std::size_t num_sets = 32 + rng.below(256);
  c.keys.resize(num_sets);
  c.ties.resize(num_sets);
  c.qranks.resize(num_sets);
  for (SetId s = 0; s < num_sets; ++s) {
    if (craft_collisions) {
      // A handful of base keys, each shifted below rank resolution:
      // equal ranks, distinct keys — the exact-fallback shape.
      const double base = -1.0 - static_cast<double>(rng.below(4));
      c.keys[s] = base - static_cast<double>(rng.below(16)) * kSubRankStep;
    } else {
      c.keys[s] = -1.0 - rng.uniform();
    }
    c.ties[s] = rng();
    c.qranks[s] = quantized_key_rank(c.keys[s]);
  }
  const std::size_t count = 1 + rng.below(40);
  c.offsets.push_back(0);
  for (std::size_t i = 0; i < count; ++i) {
    c.caps.push_back(static_cast<Capacity>(rng.below(4)));  // incl. cap 0
    const std::size_t n = rng.below(30);                    // incl. empty rows
    // Sorted distinct candidates, as the engine guarantees.
    std::vector<bool> used(num_sets, false);
    std::vector<SetId> row;
    for (std::size_t j = 0; j < n; ++j) {
      const SetId s = static_cast<SetId>(rng.below(num_sets));
      if (!used[s]) {
        used[s] = true;
        row.push_back(s);
      }
    }
    std::sort(row.begin(), row.end());
    c.cands.insert(c.cands.end(), row.begin(), row.end());
    c.offsets.push_back(c.cands.size());
  }
  return c;
}

TEST(BlockKernel, MatchesPerRowSelectionWithFusedHistogram) {
  // The crafted cases below only exercise the exact fallback if their
  // keys really share a rank while staying distinct.
  ASSERT_EQ(quantized_key_rank(-1.0),
            quantized_key_rank(-1.0 - 15 * kSubRankStep));
  ASSERT_NE(-1.0, -1.0 - kSubRankStep);

  Rng rng(77);
  std::vector<SetId> expected;
  std::vector<SetId> topk;
  for (int it = 0; it < 300; ++it) {
    const BlockCase c = random_block_case(rng, it % 3 == 0);
    BlockScratch scratch;
    std::vector<std::uint32_t> hist(c.keys.size(), 0);
    scratch.got = hist.data();
    BlockChoices out;
    top_by_priority_soa_block(c.block(), c.keys.data(), c.ties.data(),
                              c.qranks.data(), scratch, out);
    EXPECT_TRUE(scratch.hist_applied);

    // Row by row against the per-element selection, order included.
    ASSERT_EQ(out.offsets.size(), c.caps.size() + 1);
    for (std::size_t i = 0; i < c.caps.size(); ++i) {
      const std::size_t n = c.offsets[i + 1] - c.offsets[i];
      expected.resize(n);
      expected.resize(top_by_priority_soa(
          c.cands.data() + c.offsets[i], n, c.keys.data(), c.ties.data(),
          c.caps[i], expected.data(), topk));
      EXPECT_EQ(out.row(i).to_vector(), expected)
          << "iteration " << it << " row " << i << " capacity " << c.caps[i];
    }
    // The fused histogram equals a recount over the written rows.
    std::vector<std::uint32_t> recount(c.keys.size(), 0);
    for (std::size_t j = 0; j < out.offsets.back(); ++j) ++recount[out.ids[j]];
    EXPECT_EQ(hist, recount);
  }
}

TEST(BlockKernel, HistogramChannelStaysOffWithoutOptIn) {
  Rng rng(5);
  const BlockCase c = random_block_case(rng, false);
  BlockScratch scratch;  // got stays nullptr
  BlockChoices out;
  top_by_priority_soa_block(c.block(), c.keys.data(), c.ties.data(),
                            c.qranks.data(), scratch, out);
  EXPECT_FALSE(scratch.hist_applied);
}

}  // namespace
}  // namespace osp
