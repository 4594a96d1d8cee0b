// Tests for the flat engine: golden equivalence against the seed engine
// and seed algorithms, batch-runner determinism, and scratch reuse.
//
// The equivalence suite works at two levels:
//  * engine level — play() / play_flat() must reproduce play_reference()
//    (the seed engine, preserved verbatim) exactly, including the
//    per-element decision traces, for every algorithm in the library;
//  * algorithm level — the ported decide() implementations must reproduce
//    the SEED implementations of randPr / the baselines (replicated here
//    verbatim from the pre-refactor sources) decision for decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "algos/baselines.hpp"
#include "api/policy_registry.hpp"
#include "core/game.hpp"
#include "core/priority.hpp"
#include "core/rand_pr.hpp"
#include "engine/batch_runner.hpp"
#include "engine/trial.hpp"
#include "gen/random_instances.hpp"
#include "testing/seed_reference.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

// ---------------------------------------------------------------------
// Seed algorithm replicas (verbatim from the pre-refactor sources; each
// runs its allocating body behind decide() on a copy of the candidates).

/// The seed repo's greedy-maxw baseline: stable_sort selection.
class SeedGreedyMaxWeight final : public ActiveTracking {
 public:
  std::string name() const override { return "seed-greedy-maxw"; }
  std::size_t decide(ElementId, Capacity capacity, const SetId* cands,
                     std::size_t num_candidates, SetId* out) override {
    const std::vector<SetId> candidates(cands, cands + num_candidates);
    std::vector<SetId> active, dead;
    for (SetId s : candidates)
      (is_active(s) ? active : dead).push_back(s);
    std::stable_sort(active.begin(), active.end(), [&](SetId a, SetId b) {
      double sa = meta()[a].weight, sb = meta()[b].weight;
      if (sa != sb) return sa > sb;
      return a < b;
    });
    std::vector<SetId> chosen;
    for (SetId s : active) {
      if (chosen.size() == capacity) break;
      chosen.push_back(s);
    }
    for (SetId s : dead) {
      if (chosen.size() == capacity) break;
      chosen.push_back(s);
    }
    record(candidates, chosen);
    std::copy(chosen.begin(), chosen.end(), out);
    return chosen.size();
  }
};

/// The seed repo's round-robin baseline, cursor behaviour included.
class SeedRoundRobin final : public ActiveTracking {
 public:
  std::string name() const override { return "seed-round-robin"; }
  void start(const std::vector<SetMeta>& sets) override {
    ActiveTracking::start(sets);
    cursor_ = 0;
  }
  std::size_t decide(ElementId, Capacity capacity, const SetId* cands,
                     std::size_t num_candidates, SetId* out) override {
    const std::vector<SetId> candidates(cands, cands + num_candidates);
    std::vector<SetId> active, dead;
    for (SetId s : candidates) (is_active(s) ? active : dead).push_back(s);
    std::stable_sort(active.begin(), active.end(), [&](SetId a, SetId b) {
      bool wa = a >= cursor_, wb = b >= cursor_;
      if (wa != wb) return wa;
      return a < b;
    });
    std::vector<SetId> chosen;
    for (SetId s : active) {
      if (chosen.size() == capacity) break;
      chosen.push_back(s);
    }
    for (SetId s : dead) {
      if (chosen.size() == capacity) break;
      chosen.push_back(s);
    }
    if (!chosen.empty()) cursor_ = chosen.front() + 1;
    if (cursor_ >= meta().size()) cursor_ = 0;
    record(candidates, chosen);
    std::copy(chosen.begin(), chosen.end(), out);
    return chosen.size();
  }

 private:
  std::size_t cursor_ = 0;
};

/// The seed repo's uniform-random baseline: identical Rng draw sequence.
class SeedUniformRandomChoice final : public ActiveTracking {
 public:
  explicit SeedUniformRandomChoice(Rng rng) : rng_(rng) {}
  std::string name() const override { return "seed-uniform-random"; }
  std::size_t decide(ElementId, Capacity capacity, const SetId* cands,
                     std::size_t num_candidates, SetId* out) override {
    const std::vector<SetId> candidates(cands, cands + num_candidates);
    std::vector<SetId> pool;
    for (SetId s : candidates)
      if (is_active(s)) pool.push_back(s);
    if (pool.empty()) pool = candidates;
    std::vector<SetId> chosen;
    for (std::size_t i = 0; i < pool.size() && chosen.size() < capacity;
         ++i) {
      std::size_t j =
          i + static_cast<std::size_t>(rng_.below(pool.size() - i));
      std::swap(pool[i], pool[j]);
      chosen.push_back(pool[i]);
    }
    record(candidates, chosen);
    std::copy(chosen.begin(), chosen.end(), out);
    return chosen.size();
  }

 private:
  Rng rng_;
};

// ---------------------------------------------------------------------
// Helpers.

/// Wraps an algorithm and records every answer it gives, on any path.
class Recording final : public OnlineAlgorithm {
 public:
  explicit Recording(OnlineAlgorithm& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void start(const std::vector<SetMeta>& sets) override {
    inner_.start(sets);
  }
  std::size_t decide(ElementId u, Capacity capacity, const SetId* candidates,
                     std::size_t num_candidates, SetId* out) override {
    std::size_t n =
        inner_.decide(u, capacity, candidates, num_candidates, out);
    trace.emplace_back(out, out + n);
    return n;
  }
  void decide_batch(const ArrivalBlock& block, BlockScratch& scratch,
                    BlockChoices& out) override {
    inner_.decide_batch(block, scratch, out);
    // One trace row per block record, so block traces compare 1:1 with
    // per-element traces.
    for (std::size_t i = 0; i < block.count; ++i)
      trace.emplace_back(out.chosen_of(i), out.chosen_of(i) + out.num_chosen(i));
  }

  std::vector<std::vector<SetId>> trace;

 private:
  OnlineAlgorithm& inner_;
};

void expect_same_outcome(const Outcome& a, const Outcome& b,
                         const std::string& what) {
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.completed_mask, b.completed_mask) << what;
  EXPECT_EQ(a.decisions, b.decisions) << what;
  EXPECT_DOUBLE_EQ(a.benefit, b.benefit) << what;
}

Instance fuzz_instance(std::size_t round, Rng& gen) {
  const std::size_t m = 3 + gen.below(30);
  const std::size_t n = 4 + gen.below(60);
  const std::size_t k = 1 + gen.below(4);  // k <= 4 <= n always
  const WeightModel wm = (round % 3 == 0) ? WeightModel::unit()
                         : (round % 3 == 1)
                             ? WeightModel::uniform(1, 9)
                             : WeightModel::zipf(1.3);
  if (round % 2 == 0)
    return random_instance(m, n, k, wm, gen);
  return random_capacity_instance(m, n, k, /*cap_max=*/3, wm, gen);
}

struct Maker {
  std::string label;
  std::function<std::unique_ptr<OnlineAlgorithm>(Rng)> make;
};

/// Every policy in the library — the policy catalog, so a newly listed
/// policy is swept automatically — plus two test-only degenerate hash
/// configurations.  This is the population both the
/// engine-equivalence and the decide_batch fuzz suites quantify over.
std::vector<Maker> all_policy_makers() {
  std::vector<Maker> makers;
  for (const api::PolicyInfo& p : api::policies().entries())
    makers.push_back({p.name, p.make});
  makers.push_back({"hashPr/const", [](Rng) {
                      // Degenerate hash: every set gets the same key, so
                      // every comparison runs the exact tie-resolution
                      // path (and the block kernel's rank-collision cold
                      // branch) — the worst case for quantized ranks.
                      // Not a useful policy, hence not registered.
                      return std::make_unique<RandPr>(
                          [](std::uint64_t) { return 0.5; }, "hashPr/const");
                    }});
  makers.push_back({"hashPr/filt-custom", [](Rng r) {
                      // An ad-hoc (non-factory) hash with filter_dead:
                      // stateful decisions over a hash with no rehash
                      // recipe, driving the per-element fallback of
                      // decide_batch on a non-reseedable instance.
                      const std::uint64_t mult = r() | 1;
                      return std::make_unique<RandPr>(
                          [mult](std::uint64_t key) {
                            return static_cast<double>((key + 1) * mult %
                                                       10007) /
                                   10007.0;
                          },
                          "hashPr/filt-custom",
                          RandPrOptions{.filter_dead = true});
                    }});
  return makers;
}

TEST(PolicyCatalog, OrderIsTheListedOrderInEveryBinary) {
  // docs/CATALOG.md's order, in this binary as in osp_cli.  An "all
  // policies" grid's column index feeds engine::trial_seed, so an order
  // that followed the link (the baselines first) would draw other streams.
  const std::vector<std::string> expected = {
      "randpr", "randpr:filt", "randpr:filt1", "randpr:unif", "randpr:fresh",
      "hashpr", "hashpr:tab", "hashpr:ms", "hashpr:filt",
      "greedy:first", "greedy:maxw", "greedy:progress", "greedy:srpt",
      "greedy:density", "round-robin", "uniform-random"};
  EXPECT_EQ(api::policies().names(), expected);
}

// ---------------------------------------------------------------------
// Golden equivalence: flat engine vs seed engine, ported vs seed algs.

TEST(GoldenEquivalence, FlatEngineMatchesSeedEngineForAllAlgorithms) {
  Rng master(0xf1a7);
  PlayScratch scratch;  // deliberately shared across all runs
  for (std::size_t round = 0; round < 24; ++round) {
    Rng gen = master.split(round);
    Instance inst = fuzz_instance(round, gen);

    for (const Maker& mk : all_policy_makers()) {
      Rng seed_rng = master.split(1000 + round);
      auto ref_alg = mk.make(seed_rng);
      auto flat_alg = mk.make(seed_rng);
      auto plain_alg = mk.make(seed_rng);

      Recording ref_rec(*ref_alg);
      Recording flat_rec(*flat_alg);

      Outcome ref = play_reference(inst, ref_rec);
      Outcome flat = play_flat(inst, flat_rec, scratch);
      Outcome plain = play(inst, *plain_alg);

      const std::string what = mk.label + " round " + std::to_string(round);
      expect_same_outcome(ref, flat, what + " (reference vs flat)");
      expect_same_outcome(ref, plain, what + " (reference vs play)");
      EXPECT_EQ(ref_rec.trace, flat_rec.trace) << what << " decision trace";
    }
  }
}

TEST(GoldenEquivalence, PortedRandPrMatchesSeedImplementation) {
  Rng master(0x5eed);
  PlayScratch scratch;
  for (std::size_t round = 0; round < 16; ++round) {
    Rng gen = master.split(round);
    Instance inst = fuzz_instance(round, gen);
    struct Opt {
      std::string label;
      RandPrOptions options;
    };
    for (const Opt& o :
         {Opt{"paper", {}},
          Opt{"filt", {.filter_dead = true}},
          Opt{"filt2", {.filter_dead = true, .allowed_misses = 2}},
          Opt{"unif", {.ignore_weights = true}},
          Opt{"fresh", {.fresh_priorities_per_element = true}}}) {
      Rng trial_rng = master.split(500 + round);
      seedref::SeedRandPr seed_alg(trial_rng, o.options);
      RandPr ported_alg(trial_rng, o.options);
      Recording seed_rec(seed_alg);
      Recording ported_rec(ported_alg);
      Outcome seed_out = play_reference(inst, seed_rec);
      Outcome ported_out = play_flat(inst, ported_rec, scratch);
      const std::string what = "randPr/" + o.label + " round " +
                               std::to_string(round) + " on " +
                               inst.describe();
      expect_same_outcome(seed_out, ported_out, what);
      EXPECT_EQ(seed_rec.trace, ported_rec.trace) << what;
    }
  }
}

TEST(GoldenEquivalence, PortedBaselinesMatchSeedImplementations) {
  Rng master(0xba5e);
  PlayScratch scratch;
  for (std::size_t round = 0; round < 16; ++round) {
    Rng gen = master.split(round);
    Instance inst = fuzz_instance(round, gen);

    {
      SeedGreedyMaxWeight seed_alg;
      GreedyMaxWeight ported_alg;
      Recording seed_rec(seed_alg);
      Recording ported_rec(ported_alg);
      Outcome a = play_reference(inst, seed_rec);
      Outcome b = play_flat(inst, ported_rec, scratch);
      expect_same_outcome(a, b, "greedy-maxw round " + std::to_string(round));
      EXPECT_EQ(seed_rec.trace, ported_rec.trace) << "greedy-maxw trace";
    }
    {
      SeedRoundRobin seed_alg;
      RoundRobin ported_alg;
      Recording seed_rec(seed_alg);
      Recording ported_rec(ported_alg);
      Outcome a = play_reference(inst, seed_rec);
      Outcome b = play_flat(inst, ported_rec, scratch);
      expect_same_outcome(a, b, "round-robin round " + std::to_string(round));
      EXPECT_EQ(seed_rec.trace, ported_rec.trace) << "round-robin trace";
    }
    {
      Rng trial_rng = master.split(700 + round);
      SeedUniformRandomChoice seed_alg(trial_rng);
      UniformRandomChoice ported_alg(trial_rng);
      Recording seed_rec(seed_alg);
      Recording ported_rec(ported_alg);
      Outcome a = play_reference(inst, seed_rec);
      Outcome b = play_flat(inst, ported_rec, scratch);
      expect_same_outcome(a, b,
                          "uniform-random round " + std::to_string(round));
      EXPECT_EQ(seed_rec.trace, ported_rec.trace) << "uniform-random trace";
    }
  }
}

TEST(GoldenEquivalence, TopByPriorityMatchesPartialSortReference) {
  Rng rng(0x70b);
  for (int round = 0; round < 200; ++round) {
    const std::size_t m = 2 + rng.below(40);
    std::vector<PriorityKey> keys(m);
    for (auto& k : keys) {
      k = sample_rw_key(1.0 + rng.uniform() * 5, rng);
      if (rng.chance(0.2)) k.key = -1.0;  // force some exact collisions
    }
    std::vector<SetId> candidates;
    for (SetId s = 0; s < m; ++s)
      if (rng.chance(0.7)) candidates.push_back(s);
    if (candidates.empty()) candidates.push_back(0);
    const Capacity capacity = 1 + rng.below(4);

    // Seed selection: partial_sort on a copy.
    std::vector<SetId> expected = candidates;
    if (expected.size() > capacity) {
      std::partial_sort(expected.begin(), expected.begin() + capacity,
                        expected.end(),
                        [&](SetId a, SetId b) { return keys[a] > keys[b]; });
      expected.resize(capacity);
    }
    // The SoA selection over the same (key, tie) priorities.
    std::vector<double> ks(m);
    std::vector<std::uint64_t> ts(m);
    for (std::size_t s = 0; s < m; ++s) {
      ks[s] = keys[s].key;
      ts[s] = keys[s].tie;
    }
    std::vector<SetId> soa(std::min<std::size_t>(capacity, candidates.size()));
    std::vector<SetId> scratch;
    soa.resize(top_by_priority_soa(candidates.data(), candidates.size(),
                                   ks.data(), ts.data(), capacity, soa.data(),
                                   scratch));
    // PriorityKey's (key, tie) order is total, so the selections agree
    // element for element, order included.
    EXPECT_EQ(expected, soa) << "round " << round;
  }
}

// ---------------------------------------------------------------------
// Block-batched decisions: decide_batch vs the per-element decide path.

/// Wider instances than fuzz_instance (k up to 24 candidates per element)
/// so unit-capacity rows are long enough to hold several rank collisions.
Instance wide_instance(std::size_t round, Rng& gen) {
  const std::size_t m = 26 + gen.below(30);
  const std::size_t n = 30 + gen.below(60);
  const std::size_t k = std::vector<std::size_t>{2, 8, 17, 24}[round % 4];
  const WeightModel wm =
      round % 2 == 0 ? WeightModel::unit() : WeightModel::zipf(1.3);
  return round % 2 == 0 ? random_instance(m, n, k, wm, gen)
                        : random_capacity_instance(m, n, k, 3, wm, gen);
}

TEST(GoldenEquivalence, DecideBatchMatchesPerElementDecideForAllPolicies) {
  // The decide_batch contract: consuming a CSR arrival block must be
  // decision-identical to per-element decide() calls in arrival order —
  // proven here for every policy (block kernels and fallbacks alike), at
  // block sizes that split instances unevenly, including single-element
  // blocks, with full decision traces compared.  The last rounds use
  // wide_instance rows, and the population adds a nearly-equal-keys hash
  // whose quantized ranks collide while the exact keys differ, so the
  // block kernel's exact (key, tie) fallback decides many rows.
  std::vector<Maker> makers = all_policy_makers();
  makers.push_back(
      {"hashPr/nearly-equal", [](Rng) {
         // Hash outputs 2^-50 apart: far below the u32 rank resolution
         // (~2^-32 relative), so ranks collide while the doubles differ.
         return std::make_unique<RandPr>(
             [](std::uint64_t key) {
               return 0.5 + static_cast<double>(key % 64) * 0x1p-50;
             },
             "hashPr/nearly-equal");
       }});

  constexpr std::size_t kFuzzRounds = 16;
  constexpr std::size_t kWideRounds = 6;
  Rng master(0xb10c);
  PlayScratch flat_scratch;
  PlayScratch block_scratch;  // deliberately shared across all runs
  for (std::size_t round = 0; round < kFuzzRounds + kWideRounds; ++round) {
    Rng gen = master.split(round);
    Instance inst = round < kFuzzRounds
                        ? fuzz_instance(round, gen)
                        : wide_instance(round - kFuzzRounds, gen);

    for (const Maker& mk : makers) {
      for (std::size_t block_size :
           {std::size_t{1}, std::size_t{3}, std::size_t{64},
            inst.num_elements()}) {
        Rng seed_rng = master.split(4000 + round);
        auto flat_alg = mk.make(seed_rng);
        auto block_alg = mk.make(seed_rng);
        Recording flat_rec(*flat_alg);
        Recording block_rec(*block_alg);

        Outcome flat = play_flat(inst, flat_rec, flat_scratch);
        Outcome block =
            play_flat_blocks(inst, block_rec, block_scratch, block_size);

        const std::string what = mk.label + " round " +
                                 std::to_string(round) + " block_size " +
                                 std::to_string(block_size);
        expect_same_outcome(flat, block, what);
        EXPECT_EQ(flat_rec.trace, block_rec.trace) << what << " trace";
      }
    }
  }
}

TEST(DecideBatch, EmptyAndDegenerateBlocksMatchScalarAndDoNotAllocate) {
  // An empty block, a block of capacity-0 records, and a single-element
  // block must reproduce the scalar path exactly, and warm degenerate
  // calls must not touch the allocator (asserted through buffer identity
  // on every call, not sampled).
  const std::size_t m = 8;
  std::vector<SetMeta> metas(m);
  for (SetId s = 0; s < m; ++s) metas[s] = SetMeta{1.0 + s, 2};

  for (const Maker& mk : all_policy_makers()) {
    Rng rng(0xdeadbeef);
    auto scalar = mk.make(rng);
    auto batched = mk.make(rng);
    scalar->start(metas);
    batched->start(metas);

    // Layout: candidates of three records, shared flat array.
    const std::vector<SetId> cands = {0, 2, 5, 1, 3, 4, 6, 7};
    const std::vector<std::size_t> offsets = {0, 3, 6, 8};
    const std::vector<Capacity> caps1 = {1, 2, 1};
    const std::vector<Capacity> caps0 = {0, 0, 0};

    BlockScratch scratch;
    BlockChoices out;

    // Warm-up call so every reusable buffer has its steady-state size.
    const ArrivalBlock warm{0, 3, caps1.data(), cands.data(),
                            offsets.data()};
    batched->decide_batch(warm, scratch, out);

    // Scalar reference for the same three records.
    std::vector<std::vector<SetId>> expected;
    std::vector<SetId> buf(8);
    for (std::size_t i = 0; i < 3; ++i) {
      std::size_t n = scalar->decide(
          static_cast<ElementId>(i), caps1[i], cands.data() + offsets[i],
          offsets[i + 1] - offsets[i], buf.data());
      expected.emplace_back(buf.begin(), buf.begin() + n);
    }
    ASSERT_EQ(out.offsets.size(), 4u);
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(out.row(i).to_vector(), expected[i])
          << mk.label << " record " << i;

    const SetId* ids_buf = out.ids.data();
    const std::size_t ids_cap = out.ids.capacity();
    const std::size_t off_cap = out.offsets.capacity();

    // Empty block: no records, no choices, no allocation.
    const ArrivalBlock empty{3, 0, caps1.data(), cands.data(),
                             offsets.data() + 3};
    batched->decide_batch(empty, scratch, out);
    EXPECT_EQ(out.offsets.size(), 1u) << mk.label;
    EXPECT_EQ(out.offsets[0], 0u) << mk.label;
    EXPECT_EQ(out.ids.data(), ids_buf) << mk.label << " ids reallocated";
    EXPECT_EQ(out.ids.capacity(), ids_cap) << mk.label;
    EXPECT_EQ(out.offsets.capacity(), off_cap) << mk.label;

    // Capacity-0 block: every record must choose nothing, like the
    // scalar path (which the capacity guard in top_by_priority_soa
    // covers), and nothing may be allocated.
    auto scalar0 = mk.make(Rng(0xdeadbeef));
    scalar0->start(metas);
    for (std::size_t i = 0; i < 3; ++i) {
      std::size_t n = scalar0->decide(
          static_cast<ElementId>(i), 0, cands.data() + offsets[i],
          offsets[i + 1] - offsets[i], buf.data());
      EXPECT_EQ(n, 0u) << mk.label << " scalar capacity-0 record " << i;
    }
    auto batched0 = mk.make(Rng(0xdeadbeef));
    batched0->start(metas);
    batched0->decide_batch(warm, scratch, out);  // warm this instance too
    const ArrivalBlock zero_cap{0, 3, caps0.data(), cands.data(),
                                offsets.data()};
    batched0->decide_batch(zero_cap, scratch, out);
    ASSERT_EQ(out.offsets.size(), 4u) << mk.label;
    EXPECT_EQ(out.offsets.back(), 0u) << mk.label << " capacity-0 chose";
    EXPECT_EQ(out.offsets.capacity(), off_cap) << mk.label;

    // Single-element block == one scalar decide.
    auto scalar1 = mk.make(Rng(0xf00d));
    auto batched1 = mk.make(Rng(0xf00d));
    scalar1->start(metas);
    batched1->start(metas);
    std::size_t n1 = scalar1->decide(0, caps1[0], cands.data(), 3,
                                     buf.data());
    const ArrivalBlock single{0, 1, caps1.data(), cands.data(),
                              offsets.data()};
    batched1->decide_batch(single, scratch, out);
    ASSERT_EQ(out.offsets.size(), 2u) << mk.label;
    EXPECT_EQ(out.row(0).to_vector(),
              std::vector<SetId>(buf.begin(), buf.begin() + n1))
        << mk.label << " single-record block";
  }
}

// ---------------------------------------------------------------------
// Batch runner.

engine::GridSpec small_grid(const std::vector<const Instance*>& instances) {
  engine::GridSpec spec;
  spec.instances = instances;
  for (const char* policy : {"randpr", "greedy:maxw"}) {
    const api::PolicyInfo& info = api::policies().at(policy);
    spec.algorithms.push_back({info.name, info.make});
  }
  spec.trials = 9;
  spec.master_seed = 0xabcdef;
  return spec;
}

TEST(BatchRunner, DeterministicAcrossThreadCounts) {
  Rng gen(77);
  Instance a = random_instance(12, 20, 3, WeightModel::unit(), gen);
  Instance b = random_instance(20, 30, 4, WeightModel::uniform(1, 5), gen);
  engine::GridSpec spec = small_grid({&a, &b});

  auto run_with = [&](std::size_t threads) {
    engine::BatchRunner runner{engine::BatchOptions{threads}};
    return engine::run_grid(runner, spec);
  };
  auto cells1 = run_with(1);
  auto cells2 = run_with(2);
  auto cells5 = run_with(5);

  ASSERT_EQ(cells1.size(), 4u);
  ASSERT_EQ(cells2.size(), cells1.size());
  ASSERT_EQ(cells5.size(), cells1.size());
  for (std::size_t i = 0; i < cells1.size(); ++i) {
    // Bitwise equality: seeding depends only on grid coordinates and
    // aggregation order is fixed, so thread count must not matter at all.
    EXPECT_EQ(cells1[i].benefit.mean(), cells2[i].benefit.mean()) << i;
    EXPECT_EQ(cells1[i].benefit.mean(), cells5[i].benefit.mean()) << i;
    EXPECT_EQ(cells1[i].benefit.stddev(), cells5[i].benefit.stddev()) << i;
    EXPECT_EQ(cells1[i].decisions.mean(), cells5[i].decisions.mean()) << i;
    EXPECT_EQ(cells1[i].elements, cells5[i].elements) << i;
    EXPECT_EQ(cells1[i].benefit.count(), 9u) << i;
  }
}

TEST(BatchRunner, MapReturnsResultsInIndexOrder) {
  engine::BatchRunner runner{engine::BatchOptions{4}};
  auto out = runner.map<std::size_t>(
      100, [](std::size_t i, engine::TrialContext&) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(BatchRunner, PropagatesExceptions) {
  engine::BatchRunner runner{engine::BatchOptions{3}};
  EXPECT_THROW(
      runner.map<int>(50,
                      [](std::size_t i, engine::TrialContext&) {
                        if (i == 31) throw RequireError("boom");
                        return 0;
                      }),
      RequireError);
}

TEST(BatchRunner, OspThreadsMustBeAnIntegerFromOneTo256) {
  // resolve_num_threads(0) only reads the variable; it starts no thread.
  struct RestoreEnv {
    std::optional<std::string> saved;
    RestoreEnv() {
      if (const char* v = std::getenv("OSP_THREADS")) saved = v;
    }
    ~RestoreEnv() {
      if (saved)
        setenv("OSP_THREADS", saved->c_str(), 1);
      else
        unsetenv("OSP_THREADS");
    }
  } restore;
  const auto resolve_with = [](const char* value) {
    setenv("OSP_THREADS", value, 1);
    return engine::resolve_num_threads(0);
  };
  EXPECT_EQ(resolve_with("1"), 1u);
  EXPECT_EQ(resolve_with("256"), engine::kMaxThreads);
  for (const char* bad : {"abc", "-1", "0", "257", "4x", " 4", "+4",
                          "18446744073709551617"})
    EXPECT_THROW(resolve_with(bad), RequireError) << bad;
  // An explicit count wins over the variable.
  EXPECT_EQ(engine::resolve_num_threads(3), 3u);
  // Empty means unset: the hardware count.
  const std::size_t hardware = resolve_with("");
  unsetenv("OSP_THREADS");
  EXPECT_EQ(engine::resolve_num_threads(0), hardware);
  EXPECT_GE(hardware, 1u);
}

TEST(BatchRunner, TrialSeedsAreStableAndDistinct) {
  // Stability: the same coordinates always give the same seed (documented
  // contract — results must be reproducible across runs and machines).
  EXPECT_EQ(engine::trial_seed(1, 2, 3, 4), engine::trial_seed(1, 2, 3, 4));
  // Distinctness across each coordinate.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 4; ++i)
    for (std::uint64_t a = 0; a < 4; ++a)
      for (std::uint64_t t = 0; t < 4; ++t)
        seeds.push_back(engine::trial_seed(42, i, a, t));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

// ---------------------------------------------------------------------
// ActiveTracking underflow guard (satellite fix).

TEST(ActiveTracking, RemainingClampsWhenSetOverflowsDeclaredSize) {
  class Probe final : public ActiveTracking {
   public:
    std::string name() const override { return "probe"; }
    std::size_t decide(ElementId, Capacity, const SetId* candidates,
                       std::size_t num_candidates, SetId* out) override {
      out[0] = candidates[0];
      record(candidates, num_candidates, out, 1);
      return 1;
    }
  };
  Probe p;
  p.start({{1.0, /*declared size=*/1}});
  std::vector<SetId> cands{0};
  SetId out[1];
  p.decide(0, 1, cands.data(), 1, out);
  EXPECT_EQ(p.remaining(0), 0u);
  // A second arrival of the same set exceeds the declared size; before the
  // guard this wrapped std::size_t to ~2^64.
  p.decide(1, 1, cands.data(), 1, out);
  EXPECT_EQ(p.seen(0), 2u);
  EXPECT_EQ(p.remaining(0), 0u);
  EXPECT_EQ(p.misses(0), 0u);
  EXPECT_TRUE(p.is_active(0));
}

// ---------------------------------------------------------------------
// Scratch reuse across differently-shaped instances.

TEST(PlayScratch, ReusableAcrossInstancesOfDifferentShape) {
  Rng gen(123);
  PlayScratch scratch;
  Instance big = random_instance(40, 60, 4, WeightModel::unit(), gen);
  Instance small = random_instance(4, 6, 2, WeightModel::unit(), gen);
  for (const Instance* inst : {&big, &small, &big, &small}) {
    Rng r(99);
    RandPr flat_alg(r);
    RandPr ref_alg(r);
    Outcome a = play_flat(*inst, flat_alg, scratch);
    Outcome b = play_reference(*inst, ref_alg);
    expect_same_outcome(a, b, inst->describe());
  }
}

}  // namespace
}  // namespace osp
