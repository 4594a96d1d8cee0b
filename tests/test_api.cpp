// Tests for the experiment API layer (src/api): the policy registry's
// round-trip and param-syntax error surface, the scenario registry, spec
// compilation, sweep-axis expansion, the key=value config loader, the
// ranker registry's round-trip parity with the hand-built router list,
// the Session measure/grid facade (bit-identical to the historical
// serial loops), the one row rendering (row_json) with a golden check
// that JsonSink output passes the repository's BENCH_*.json schema
// validator, and the shard partial/merge pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "algos/offline.hpp"
#include "api/policy_registry.hpp"
#include "api/ranker_registry.hpp"
#include "api/result_sink.hpp"
#include "api/scenario.hpp"
#include "api/session.hpp"
#include "api/shard.hpp"
#include "core/game.hpp"
#include "core/rand_pr.hpp"
#include "gen/random_instances.hpp"
#include "gen/video.hpp"
#include "net/router_sim.hpp"
#include "net/serve.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

// ---------------------------------------------------------------------
// PolicyRegistry.

TEST(PolicyRegistry, CatalogListsTheShippedPolicies) {
  // The acceptance bar the CLI's `list` relies on: every entry point sees
  // the full catalog.
  EXPECT_GE(api::policies().entries().size(), 10u);
  for (const char* expected :
       {"randpr", "randpr:filt", "hashpr", "hashpr:tab", "greedy:first",
        "greedy:srpt", "greedy:density", "round-robin", "uniform-random"})
    EXPECT_NE(api::policies().find(expected), nullptr) << expected;
}

TEST(PolicyRegistry, EveryEntryConstructsAndPlays) {
  // Round-trip: every registered name constructs a working policy and
  // plays a small instance on both engines with identical outcomes.
  Rng gen(7);
  Instance inst = random_instance(10, 14, 3, WeightModel::uniform(1, 5), gen);
  PlayScratch scratch;
  for (const api::PolicyInfo& p : api::policies().entries()) {
    auto alg = p.make(Rng(0xabc));
    ASSERT_NE(alg, nullptr) << p.name;
    EXPECT_FALSE(alg->name().empty()) << p.name;

    auto flat_alg = p.make(Rng(0xabc));
    Outcome plain = play(inst, *alg);
    Outcome flat = play_flat(inst, *flat_alg, scratch);
    EXPECT_GE(plain.benefit, 0.0) << p.name;
    EXPECT_EQ(plain.completed, flat.completed) << p.name;
    EXPECT_DOUBLE_EQ(plain.benefit, flat.benefit) << p.name;
  }
}

TEST(PolicyRegistry, AliasesResolveToTheSameEntry) {
  // Historical CLI spellings and display names keep working.
  struct Pair {
    const char* alias;
    const char* canonical;
  };
  for (const Pair& pr : {Pair{"randpr-filt", "randpr:filt"},
                         Pair{"randPr", "randpr"},
                         Pair{"greedy-first", "greedy:first"},
                         Pair{"greedy-srpt", "greedy:srpt"},
                         Pair{"hashPr/poly8", "hashpr"}}) {
    const api::PolicyInfo* via_alias = api::policies().find(pr.alias);
    ASSERT_NE(via_alias, nullptr) << pr.alias;
    EXPECT_EQ(via_alias, api::policies().find(pr.canonical)) << pr.alias;
  }
}

TEST(PolicyRegistry, EveryDisplayNameResolvesToItsOwnEntry) {
  // A policy's name() labels tables and traces; looked up again it must
  // name the policy that printed it, not a sibling variant.
  for (const api::PolicyInfo& p : api::policies().entries()) {
    const std::string shown = p.make(Rng(0))->name();
    EXPECT_EQ(&api::policies().at(shown), &p) << p.name << " shows " << shown;
  }
}

TEST(PolicyRegistry, UnknownSpecErrorsEnumerateTheCatalog) {
  try {
    api::policies().at("definitely-not-a-policy");
    FAIL() << "expected RequireError";
  } catch (const RequireError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("registered policies"), std::string::npos) << msg;
    // The enumerable list, not a hand-maintained comment block.
    for (const api::PolicyInfo& p : api::policies().entries())
      EXPECT_NE(msg.find(p.name), std::string::npos) << p.name;
  }
}

TEST(PolicyRegistry, UnknownVariantErrorsNameTheFamily) {
  try {
    api::policies().at("randpr:bogus");
    FAIL() << "expected RequireError";
  } catch (const RequireError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("family 'randpr'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("randpr:filt"), std::string::npos) << msg;
  }
  EXPECT_THROW(api::policies().at("greedy:bogus"), RequireError);
  EXPECT_THROW(api::policies().at(""), RequireError);
}

TEST(Registry, ConstructionRejectsEmptyAndDuplicateSpellings) {
  // Each catalog is checked once, when its list is built: a name or alias
  // that answers to two entries would make lookups ambiguous.
  const api::CatalogFormat<api::RankerInfo> format{
      "ranker", "rankers", {"name", "description", "aliases"},
      api::alias_cell<api::RankerInfo>};
  auto make = [](Rng) { return std::make_unique<FifoRanker>(); };
  using Entries = std::vector<api::RankerInfo>;
  EXPECT_NO_THROW(api::Registry<api::RankerInfo>(
      format, Entries{{"a", "first", {"x"}, make}, {"b", "second", {}, make}}));
  EXPECT_THROW(api::Registry<api::RankerInfo>(
                   format, Entries{{"a", "first", {}, make},
                                   {"", "unnamed", {}, make}}),
               RequireError);
  EXPECT_THROW(api::Registry<api::RankerInfo>(
                   format, Entries{{"a", "first", {}, make},
                                   {"a", "again", {}, make}}),
               RequireError);
  EXPECT_THROW(api::Registry<api::RankerInfo>(
                   format, Entries{{"a", "first", {"x"}, make},
                                   {"b", "second", {"x"}, make}}),
               RequireError);
  EXPECT_THROW(api::Registry<api::RankerInfo>(
                   format, Entries{{"a", "first", {}, make},
                                   {"b", "second", {"a"}, make}}),
               RequireError);
}

// ---------------------------------------------------------------------
// Scenario registry and spec compilation.

TEST(ScenarioRegistry, CatalogCoversFamiliesAndEngineShapes) {
  EXPECT_GE(api::scenarios().entries().size(), 6u);
  for (const char* expected :
       {"random", "regular", "fixedload", "video", "multihop", "weaklb",
        "lemma9", "engine/ladder", "uniform/corollary7", "uniform/theorem5",
        "uniform/theorem6", "capacity/random", "capacity/uniform",
        "router/unbuffered", "router/buffered", "router/overload"})
    EXPECT_NE(api::scenarios().find(expected), nullptr) << expected;

  // The engine ladder is now one zipped sweep ("engine/ladder"); its
  // expanded cell labels are the BENCH_engine.json row keys and must
  // stay stable.
  auto shapes = api::engine_shapes();
  ASSERT_EQ(shapes.size(), 6u);
  EXPECT_EQ(shapes.front().display_label(), "legacy/64");
  EXPECT_EQ(shapes.front().m, 64u);
  EXPECT_EQ(shapes.back().display_label(), "overload/256k");
  EXPECT_EQ(shapes.back().m, 8192u);
  EXPECT_EQ(shapes.back().n, 262144u);
  EXPECT_EQ(shapes.back().k, 512u);
}

TEST(ScenarioRegistry, EveryScenarioBuildsAnInstance) {
  for (const api::ScenarioSpec& registered : api::scenarios().entries()) {
    api::ScenarioSpec spec = registered;  // specs are value types
    // Clamp the big perf shapes so the sweep stays unit-test sized; the
    // override path is itself part of the API under test.
    spec.m = std::min<std::size_t>(spec.m, 48);
    spec.n = std::min<std::size_t>(spec.n, 96);
    spec.k = std::min<std::size_t>(spec.k, 4);
    spec.streams = std::min<std::size_t>(spec.streams, 4);
    spec.frames = std::min<std::size_t>(spec.frames, 12);
    Rng rng(11);
    Instance inst = api::build_instance(spec, rng);
    EXPECT_GT(inst.num_sets(), 0u) << registered.name;
    EXPECT_GT(inst.num_elements(), 0u) << registered.name;
  }
}

TEST(ScenarioSpec, StringOverridesParseStrictly) {
  api::ScenarioSpec spec = api::scenarios().at("random");
  spec.set("m", "12").set("n", "20").set("k", "2").set("weights", "zipf");
  EXPECT_EQ(spec.m, 12u);
  EXPECT_EQ(spec.n, 20u);
  EXPECT_EQ(spec.k, 2u);
  EXPECT_EQ(spec.weights.kind, WeightModel::Kind::kZipf);

  EXPECT_THROW(spec.set("m", "12x"), RequireError);
  EXPECT_THROW(spec.set("m", "-3"), RequireError);
  EXPECT_THROW(spec.set("m", ""), RequireError);
  EXPECT_THROW(spec.set("weights", "heavy"), RequireError);
  // Capacities are u32: a larger value fails naming its flag instead of
  // narrowing (2^32 + 1 to capacity 1, 2^32 to a service rate of 0, a
  // cap-max past 2^32 - 1 into wrapped capacity draws).
  spec.set("capacity", "4294967295").set("service-rate", "4294967295");
  EXPECT_EQ(spec.capacity, 4294967295u);
  EXPECT_EQ(spec.service_rate, 4294967295u);
  for (const auto& [key, value] :
       {std::pair<const char*, const char*>{"capacity", "4294967297"},
        {"service-rate", "4294967296"},
        {"cap-max", "4294967296"}}) {
    try {
      spec.set(key, value);
      FAIL() << key << " " << value << " was accepted";
    } catch (const RequireError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + key),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(spec.capacity, 4294967295u);
  try {
    spec.set("frobnication", "9");
    FAIL() << "expected RequireError";
  } catch (const RequireError& e) {
    EXPECT_NE(std::string(e.what()).find("frobnication"),
              std::string::npos);
  }
}

TEST(ScenarioSpec, ParseSizeNamesTheFlag) {
  EXPECT_EQ(api::parse_size("flag --m", "42"), 42u);
  for (const char* bad : {"", "x", "12x", "-5", "1.5", " 5", "+5",
                          "18446744073709551616"}) {
    try {
      api::parse_size("flag --m", bad);
      FAIL() << "expected RequireError for '" << bad << "'";
    } catch (const RequireError& e) {
      EXPECT_NE(std::string(e.what()).find("--m"), std::string::npos)
          << bad;
    }
  }
}

// ---------------------------------------------------------------------
// Sweep axes and expansion.

TEST(SweepAxis, ValueListsAndRangesParse) {
  api::SweepAxis a = api::sweep_axis("sigma", "2,3,4");
  ASSERT_EQ(a.cells(), 3u);
  EXPECT_EQ(a.values[0][0], "2");
  EXPECT_EQ(a.values[2][0], "4");

  // Inclusive ranges, with and without a step, mixed with literals.
  a = api::sweep_axis("m", "2..5");
  ASSERT_EQ(a.cells(), 4u);
  EXPECT_EQ(a.values[3][0], "5");
  a = api::sweep_axis("m", "2..12..3");
  ASSERT_EQ(a.cells(), 4u);  // 2, 5, 8, 11
  EXPECT_EQ(a.values[1][0], "5");
  EXPECT_EQ(a.values[3][0], "11");
  a = api::sweep_axis("m", "1, 4..6, 9");
  ASSERT_EQ(a.cells(), 5u);
  EXPECT_EQ(a.values[1][0], "4");
  EXPECT_EQ(a.values[4][0], "9");
  // Non-range literals (weight-model names) pass through untouched.
  a = api::sweep_axis("weights", "unit,zipf");
  ASSERT_EQ(a.cells(), 2u);
  EXPECT_EQ(a.values[1][0], "zipf");

  EXPECT_THROW(api::sweep_axis("m", ""), RequireError);
  EXPECT_THROW(api::sweep_axis("m", "3,,4"), RequireError);
  EXPECT_THROW(api::sweep_axis("m", "5..2"), RequireError);
  EXPECT_THROW(api::sweep_axis("m", "2..8..0"), RequireError);
  EXPECT_THROW(api::sweep_axis("m", "2..x"), RequireError);
  // A typo'd huge range must error, not materialize billions of cells.
  EXPECT_THROW(api::sweep_axis("m", "1..4000000000"), RequireError);
  // The count-based loop cannot wrap past hi: a step of 2^64-1 over the
  // full u64 range is exactly two cells, not an infinite loop.
  a = api::sweep_axis("m",
                      "0..18446744073709551615..18446744073709551615");
  ASSERT_EQ(a.cells(), 2u);
  EXPECT_EQ(a.values[0][0], "0");
  EXPECT_EQ(a.values[1][0], "18446744073709551615");
}

TEST(SweepExpansion, CartesianProductAppliesValuesAndLabels) {
  api::ScenarioSpec spec = api::scenarios().at("random");
  spec.vary(api::sweep_axis("sigma", "2,4"));
  spec.vary(api::sweep_axis("k", "3,5"));

  auto cells = api::expand(spec);
  ASSERT_EQ(cells.size(), 4u);  // first axis outermost
  EXPECT_EQ(cells[0].sigma, 2u);
  EXPECT_EQ(cells[0].k, 3u);
  EXPECT_EQ(cells[1].sigma, 2u);
  EXPECT_EQ(cells[1].k, 5u);
  EXPECT_EQ(cells[3].sigma, 4u);
  EXPECT_EQ(cells[3].k, 5u);
  EXPECT_EQ(cells[0].display_label(), "random sigma=2 k=3");
  EXPECT_EQ(cells[3].display_label(), "random sigma=4 k=5");
  for (const api::ScenarioSpec& cell : cells) {
    EXPECT_TRUE(cell.sweep.empty());        // cells are concrete
    EXPECT_EQ(cell.name, spec.name);        // name survives, label varies
    EXPECT_EQ(cell.m, spec.m);              // unswept fields untouched
  }

  // A spec without axes expands to exactly itself.
  auto plain = api::expand(api::scenarios().at("random"));
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0].display_label(), "random");
}

TEST(SweepExpansion, ZippedAxisVariesKeysTogether) {
  api::ScenarioSpec spec = api::scenarios().at("uniform/corollary7");
  auto cells = api::expand(spec);
  ASSERT_EQ(cells.size(), 6u);
  // m = 8·sigma in every cell — the zip, not a cartesian square.
  for (const api::ScenarioSpec& cell : cells)
    EXPECT_EQ(cell.m, 8 * cell.sigma);
  EXPECT_EQ(cells.front().sigma, 2u);
  EXPECT_EQ(cells.back().sigma, 12u);
  EXPECT_EQ(cells.back().m, 96u);
}

TEST(SweepExpansion, MalformedAxesThrow) {
  api::ScenarioSpec spec = api::scenarios().at("random");

  // Unknown key: the error comes from the shared set() surface.
  spec.sweep = {api::sweep_axis("frobnication", "1,2")};
  EXPECT_THROW(api::expand(spec), RequireError);

  // Zip length mismatch.
  spec.sweep = {api::sweep_axis({"m", "n"}, {{"8", "16"}, {"12"}})};
  EXPECT_THROW(api::expand(spec), RequireError);

  // Empty axis and label-count mismatch.
  spec.sweep = {api::SweepAxis{{"m"}, {}, {}}};
  EXPECT_THROW(api::expand(spec), RequireError);
  spec.sweep = {api::sweep_axis({"m"}, {{"8"}, {"12"}}, {"only-one"})};
  EXPECT_THROW(api::expand(spec), RequireError);

  // A key swept by two axes (or twice within a zip) would silently
  // square the grid with lying labels; both are rejected.
  spec.sweep = {api::sweep_axis("k", "2,3"), api::sweep_axis("k", "4,5")};
  EXPECT_THROW(api::expand(spec), RequireError);
  spec.sweep = {api::sweep_axis({"m", "m"}, {{"8", "9"}})};
  EXPECT_THROW(api::expand(spec), RequireError);

  // The cartesian product is capped: two in-bounds axes whose product
  // explodes must throw before materializing any cell.
  spec.sweep = {api::sweep_axis("m", "1..10000"),
                api::sweep_axis("sigma", "1..10000")};
  EXPECT_THROW(api::expand(spec), RequireError);
}

// ---------------------------------------------------------------------
// Config-file scenarios.

TEST(ScenarioConfig, StreamRoundTripIncludingSweep) {
  std::istringstream in(
      "# demo config\n"
      "scenario = regular   # base entry to copy\n"
      "\n"
      "m = 12\n"
      "sigma = 3\n"
      "weights = zipf\n"
      "label = demo\n"
      "trials = 42\n"
      "sweep.k = 2,3\n");
  api::ScenarioSpec spec = api::ScenarioSpec::from_stream(in, "demo.cfg");
  EXPECT_EQ(spec.name, "regular");
  EXPECT_EQ(spec.m, 12u);
  EXPECT_EQ(spec.sigma, 3u);
  EXPECT_EQ(spec.weights.kind, WeightModel::Kind::kZipf);
  EXPECT_EQ(spec.label, "demo");
  EXPECT_EQ(spec.default_trials, 42);
  ASSERT_EQ(spec.sweep.size(), 1u);

  auto cells = api::expand(spec);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].k, 2u);
  EXPECT_EQ(cells[1].k, 3u);
  EXPECT_EQ(cells[0].display_label(), "demo k=2");
  for (const api::ScenarioSpec& cell : cells) {
    Rng rng(3);
    Instance inst = api::build_instance(cell, rng);
    EXPECT_EQ(inst.num_sets(), 12u);
  }
}

TEST(ScenarioConfig, FileRoundTrip) {
  const char* path = "test_api_scenario.cfg";
  // Removed even when from_file throws, so a failing run cannot leak the
  // file into the directory the test ran from.
  struct Cleanup {
    const char* path;
    ~Cleanup() { std::remove(path); }
  } cleanup{path};
  {
    std::ofstream out(path);
    out << "scenario = random\nm = 9\nn = 14\nsweep.k = 2..3\n";
  }
  api::ScenarioSpec spec = api::ScenarioSpec::from_file(path);
  EXPECT_EQ(spec.m, 9u);
  EXPECT_EQ(spec.n, 14u);
  EXPECT_EQ(api::expand(spec).size(), 2u);

  EXPECT_THROW(api::ScenarioSpec::from_file("no-such-config.cfg"),
               RequireError);
}

TEST(ScenarioConfig, ErrorsNameTheOriginLineAndKey) {
  // Unknown key: strict, names the key and the config location.
  {
    std::istringstream in("scenario = random\nfrobnication = 9\n");
    try {
      api::ScenarioSpec::from_stream(in, "bad.cfg");
      FAIL() << "expected RequireError";
    } catch (const RequireError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("bad.cfg:2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("frobnication"), std::string::npos) << msg;
    }
  }
  // Malformed line (no '=').
  {
    std::istringstream in("scenario = random\njust some words\n");
    try {
      api::ScenarioSpec::from_stream(in, "bad.cfg");
      FAIL() << "expected RequireError";
    } catch (const RequireError& e) {
      EXPECT_NE(std::string(e.what()).find("bad.cfg:2"), std::string::npos);
    }
  }
  // Missing/duplicate/unknown base scenario, bad values, bad sweep key.
  {
    std::istringstream in("m = 9\n");
    EXPECT_THROW(api::ScenarioSpec::from_stream(in, "bad.cfg"),
                 RequireError);
  }
  {
    std::istringstream in("scenario = random\nscenario = regular\n");
    EXPECT_THROW(api::ScenarioSpec::from_stream(in, "bad.cfg"),
                 RequireError);
  }
  {
    std::istringstream in("scenario = no-such-scenario\n");
    EXPECT_THROW(api::ScenarioSpec::from_stream(in, "bad.cfg"),
                 RequireError);
  }
  {
    std::istringstream in("scenario = random\nm = 12x\n");
    EXPECT_THROW(api::ScenarioSpec::from_stream(in, "bad.cfg"),
                 RequireError);
  }
  {  // sweep over an unknown key fails on its own line, not at expand().
    std::istringstream in("scenario = random\nsweep.bogus = 1,2\n");
    try {
      api::ScenarioSpec::from_stream(in, "bad.cfg");
      FAIL() << "expected RequireError";
    } catch (const RequireError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("bad.cfg:2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
    }
  }
  {  // ... and so does a malformed value anywhere in the list, not just
     // the first (every cell is probed at load time).
    std::istringstream in("scenario = random\nsweep.m = 8,zzz\n");
    try {
      api::ScenarioSpec::from_stream(in, "bad.cfg");
      FAIL() << "expected RequireError";
    } catch (const RequireError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("bad.cfg:2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("zzz"), std::string::npos) << msg;
    }
  }
  {  // a plain override of a key the base scenario sweeps would be
     // clobbered at expand() time; refused at load like the CLI flag.
    std::istringstream in("scenario = router/buffered\nbuffer = 7\n");
    try {
      api::ScenarioSpec::from_stream(in, "bad.cfg");
      FAIL() << "expected RequireError";
    } catch (const RequireError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("bad.cfg:2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("sweep.buffer"), std::string::npos) << msg;
    }
  }
  {  // duplicate sweep axes over one key fail at load, on their line.
    std::istringstream in(
        "scenario = random\nsweep.k = 2,3\nsweep.k = 4,5\n");
    try {
      api::ScenarioSpec::from_stream(in, "bad.cfg");
      FAIL() << "expected RequireError";
    } catch (const RequireError& e) {
      EXPECT_NE(std::string(e.what()).find("bad.cfg:3"), std::string::npos)
          << e.what();
    }
  }
  {  // empty config
    std::istringstream in("# nothing but comments\n");
    EXPECT_THROW(api::ScenarioSpec::from_stream(in, "bad.cfg"),
                 RequireError);
  }
}

TEST(ScenarioSpec, AffectsInstanceSeparatesPackingFromRouterKnobs) {
  using api::ScenarioFamily;
  EXPECT_TRUE(api::affects_instance("m", ScenarioFamily::kRandom));
  EXPECT_TRUE(api::affects_instance("sigma", ScenarioFamily::kRegular));
  EXPECT_TRUE(api::affects_instance("streams", ScenarioFamily::kVideo));
  EXPECT_TRUE(api::affects_instance("capacity", ScenarioFamily::kVideo));
  // Router-only knobs and keys a family ignores.
  EXPECT_FALSE(api::affects_instance("buffer", ScenarioFamily::kVideo));
  EXPECT_FALSE(
      api::affects_instance("service-rate", ScenarioFamily::kVideo));
  EXPECT_FALSE(api::affects_instance("capacity", ScenarioFamily::kRandom));
  EXPECT_FALSE(api::affects_instance("sigma", ScenarioFamily::kRandom));
}

// ---------------------------------------------------------------------
// RankerRegistry.

TEST(RankerRegistry, CatalogMatchesTheHistoricalHandBuiltList) {
  // bench_router's old hand-built list, now the registration order (the
  // names key BENCH_router.json rows, so they must stay stable).
  const std::vector<std::string> expected = {"randPr", "by-weight",
                                             "drop-tail", "random-drop"};
  EXPECT_EQ(api::rankers().names(), expected);
  // Display-name/alias lookups resolve, and every registered name equals
  // the constructed ranker's self-reported name().
  EXPECT_EQ(api::rankers().find("randpr"), api::rankers().find("randPr"));
  for (const api::RankerInfo& info : api::rankers().entries()) {
    auto ranker = info.make(Rng(1));
    ASSERT_NE(ranker, nullptr) << info.name;
    EXPECT_EQ(ranker->name(), info.name);
  }
  EXPECT_THROW(api::rankers().at("no-such-ranker"), RequireError);
  try {
    api::rankers().at("no-such-ranker");
    FAIL() << "expected RequireError";
  } catch (const RequireError& e) {
    for (const api::RankerInfo& info : api::rankers().entries())
      EXPECT_NE(std::string(e.what()).find(info.name), std::string::npos);
  }
}

TEST(RankerRegistry, RegistryRankersAreDecisionIdenticalToHandBuilt) {
  // Round-trip parity: registry-built rankers must serve exactly the
  // packets the directly constructed ones do (stats AND serve trace) on
  // the buffered router, the serving runtime at one link.
  Rng wl_rng(5);
  VideoParams params;
  params.num_streams = 6;
  params.frames_per_stream = 12;
  VideoWorkload vw = make_video_workload(params, wl_rng);
  const ServeSpec spec{.links = 1, .service_rate = 1, .buffer = 8};

  RandPrRanker hand_randpr{Rng(9)};
  WeightRanker hand_weight;
  FifoRanker hand_fifo;
  RandomRanker hand_random{Rng(11)};
  struct Case {
    const char* name;
    FrameRanker* hand;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{"randPr", &hand_randpr, 9},
                        Case{"by-weight", &hand_weight, 0},
                        Case{"drop-tail", &hand_fifo, 0},
                        Case{"random-drop", &hand_random, 11}}) {
    ServeTrace hand_trace, reg_trace;
    const SustainedStats hand_stats = serve_sustained(
        vw.schedule, vw.stream_of, *c.hand, spec, &hand_trace);
    auto reg = api::rankers().make(c.name, Rng(c.seed));
    const SustainedStats reg_stats =
        serve_sustained(vw.schedule, vw.stream_of, *reg, spec, &reg_trace);

    EXPECT_TRUE(hand_stats == reg_stats) << c.name;
    EXPECT_TRUE(hand_trace.served == reg_trace.served) << c.name;
  }
}

// ---------------------------------------------------------------------
// Session: measure parity and grid emission.

TEST(Session, MeasureIsBitIdenticalToTheHistoricalSerialLoop) {
  Rng gen(5);
  Instance inst = random_instance(16, 20, 3, WeightModel::unit(), gen);
  api::Session session;

  Rng m1(42), m2(42);
  RunningStat got = session.measure(inst, "randpr", m1, 32);

  RunningStat want;
  PlayScratch scratch;
  for (int t = 0; t < 32; ++t) {
    RandPr alg(m2.split(static_cast<std::uint64_t>(t)));
    want.add(play_flat(inst, alg, scratch).benefit);
  }
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.mean(), want.mean());
  EXPECT_EQ(got.stddev(), want.stddev());

  // The same parity for every catalog policy (measure re-arms a
  // reseedable one per worker) and a bare hashed RandPr (not reseedable:
  // measure rebuilds it every trial), on weighted instances with
  // capacities too, at 1 and 3 workers.
  std::vector<std::pair<std::string, api::PolicyFactory>> makers;
  for (const api::PolicyInfo& p : api::policies().entries())
    makers.emplace_back(p.name, p.make);
  makers.emplace_back("bare hashed RandPr", [](Rng r) {
    const std::uint64_t mult = r() | 1;
    return std::make_unique<RandPr>(
        [mult](std::uint64_t key) {
          return static_cast<double>((key + 1) * mult % 10007 + 1) / 10009.0;
        },
        "bare");
  });
  std::vector<Instance> instances;
  instances.push_back(inst);
  instances.push_back(
      random_capacity_instance(14, 24, 3, 3, WeightModel::uniform(1, 5), gen));
  for (const std::size_t workers : {1, 3}) {
    const engine::BatchRunner runner(
        engine::BatchOptions{.num_threads = workers});
    api::Session on_runner(runner);
    for (std::size_t i = 0; i < instances.size(); ++i) {
      for (const auto& [name, make] : makers) {
        const std::string where = name + ", instance " + std::to_string(i) +
                                  ", workers " + std::to_string(workers);
        Rng a(42), b(42);
        const RunningStat measured =
            on_runner.measure(instances[i], make, a, 32);
        RunningStat serial;
        for (int t = 0; t < 32; ++t) {
          auto alg = make(b.split(static_cast<std::uint64_t>(t)));
          serial.add(play_flat(instances[i], *alg, scratch).benefit);
        }
        EXPECT_EQ(measured.count(), serial.count()) << where;
        EXPECT_EQ(measured.mean(), serial.mean()) << where;
        EXPECT_EQ(measured.stddev(), serial.stddev()) << where;
        EXPECT_EQ(a(), b()) << where << ": master streams diverged";
      }
    }
  }
}

TEST(Session, MeasurePastOneTrialChunkIsStillTheSerialLoop) {
  // measure() plays 65536 trials per batch-runner call, so its memory
  // does not grow with the trial count; a count past one chunk must keep
  // the serial loop's streams and order.
  Rng gen(9);
  const Instance inst =
      random_instance(6, 8, 2, WeightModel::uniform(1, 4), gen);
  constexpr int kTrials = (1 << 16) + 5;
  const engine::BatchRunner runner(engine::BatchOptions{.num_threads = 3});
  Rng a(7), b(7);
  const RunningStat measured =
      api::Session(runner).measure(inst, "randpr", a, kTrials);
  RunningStat serial;
  PlayScratch scratch;
  for (int t = 0; t < kTrials; ++t) {
    RandPr alg(b.split(static_cast<std::uint64_t>(t)));
    serial.add(play_flat(inst, alg, scratch).benefit);
  }
  EXPECT_EQ(measured.count(), serial.count());
  EXPECT_EQ(measured.mean(), serial.mean());
  EXPECT_EQ(measured.stddev(), serial.stddev());
  EXPECT_EQ(a(), b()) << "master streams diverged";
}

TEST(Session, RunGridEmitsOneRowPerCellToEverySink) {
  Rng gen(77);
  Instance a = random_instance(12, 20, 3, WeightModel::unit(), gen);
  Instance b = random_instance(8, 12, 2, WeightModel::unit(), gen);

  engine::GridSpec grid;
  grid.instances = {&a, &b};
  grid.algorithms.push_back(api::grid_column(api::policies().at("randpr")));
  grid.algorithms.push_back(
      api::grid_column(api::policies().at("greedy:maxw")));
  grid.trials = 5;

  api::TableSink table;
  std::ostringstream json_text;
  api::JsonSink json(json_text, "grid", 1);
  api::Session session;
  session.attach(table);
  session.attach(json);

  auto cells = session.run_grid(grid, {"A", "B"});
  session.close_sinks();

  ASSERT_EQ(cells.size(), 4u);
  for (const engine::CellStats& cell : cells)
    EXPECT_EQ(cell.benefit.count(), 5u);

  std::ostringstream rendered;
  table.print(rendered);
  EXPECT_NE(rendered.str().find("greedy:maxw"), std::string::npos);
  EXPECT_NE(rendered.str().find("benefit_mean"), std::string::npos);
  EXPECT_NE(json_text.str().find("\"results\":["), std::string::npos);
}

/// Runs `fn`, expecting a RequireError, and returns its message.
template <class Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const RequireError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a RequireError";
  return {};
}

TEST(Session, MeasureRatioIsTheProvenOptimumOverTheMeasuredMean) {
  // The first uniform/corollary7 cell on bench_uniform's streams, against
  // the hand-written exact_optimum + measure + divide loop.
  const api::ScenarioSpec cell =
      api::expand(api::scenarios().at("uniform/corollary7")).front();
  Rng master(31337);
  Rng gen = master.split(cell.sigma);
  const Instance inst = api::build_instance(cell, gen);
  const api::PolicyFactory& randpr = api::policies().at("randpr").make;
  api::Session session;

  Rng runs = master.split(100 + cell.sigma);
  Rng runs_by_hand = runs;
  const api::RatioCell got =
      session.measure_ratio(inst, randpr, runs, cell.default_trials);

  const OfflineResult opt = exact_optimum(inst);
  ASSERT_TRUE(opt.exact);
  const RunningStat alg =
      session.measure(inst, randpr, runs_by_hand, cell.default_trials);
  EXPECT_EQ(got.opt, opt.value);
  EXPECT_EQ(got.alg.count(), alg.count());
  EXPECT_EQ(got.alg.mean(), alg.mean());
  EXPECT_EQ(got.alg.stddev(), alg.stddev());
  EXPECT_EQ(got.ratio, opt.value / alg.mean());
}

TEST(Session, MeasureRatioRefusesAnUnprovenOptimum) {
  // The next bi-regular step past uniform/corollary7 (m = 112, sigma = 14):
  // branch and bound hits its node limit before it proves the optimum.
  Rng master(31337);
  Rng rng = master.split(14);
  const Instance inst = regular_instance(112, 3, 14, WeightModel::unit(), rng);
  Rng runs(1);
  const std::string msg = error_of([&] {
    api::Session().measure_ratio(inst, api::policies().at("randpr").make,
                                 runs, 10);
  });
  EXPECT_NE(msg.find("node limit of 20000000"), std::string::npos) << msg;
  EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
}

TEST(Session, MeasureRefusesATrialCountOutsideOneToABillion) {
  // Zero trials have no mean (an empty RunningStat's is 0, which
  // measure_ratio would publish as ratio = opt), and a negative count
  // must not turn into a huge size_t.  Both measure and measure_ratio
  // refuse with one line, leaving the master stream alone.
  Rng gen(5);
  const Instance inst = random_instance(8, 10, 2, WeightModel::unit(), gen);
  const api::PolicyFactory& randpr = api::policies().at("randpr").make;
  const api::Session session;
  for (const int trials : {0, -1}) {
    Rng master(42);
    for (const std::string& msg :
         {error_of([&] { session.measure(inst, randpr, master, trials); }),
          error_of([&] { session.measure(inst, "randpr", master, trials); }),
          error_of([&] {
            session.measure_ratio(inst, randpr, master, trials);
          })}) {
      EXPECT_NE(msg.find("measure trials must be in [1, 1e9], got " +
                         std::to_string(trials)),
                std::string::npos)
          << msg;
      EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    }
    EXPECT_EQ(master(), Rng(42)()) << "a refused count split the master";
  }
}

TEST(Session, CompetitiveRatioChargesZeroBenefitAsOneUnit) {
  EXPECT_EQ(api::competitive_ratio(6, 3), 2);
  EXPECT_EQ(api::competitive_ratio(6, 0), 6);
  EXPECT_EQ(api::competitive_ratio(0, 0), 0);
}

// ---------------------------------------------------------------------
// Session: the ranker grid and the sustained run.

/// A row as its artifact JSON (readable in failure messages), without
/// the wall-clock cells when `untimed`.
std::string text_of(api::Row row, bool untimed = false) {
  if (untimed)
    row.cells.erase(std::remove_if(row.cells.begin(), row.cells.end(),
                                   [](const auto& cell) {
                                     return cell.first == "seconds" ||
                                            cell.first == "packets_per_sec";
                                   }),
                    row.cells.end());
  return api::row_json(row);
}

template <class T>
T value_of(const api::Row& row, const std::string& key) {
  return std::get<T>(row.at(key));
}

/// Counts the rows it is handed.
class CountingSink final : public api::ResultSink {
 public:
  void write(const api::Row&) override { ++rows; }
  std::size_t rows = 0;
};

std::vector<api::ScenarioSpec> cells_of(
    const std::vector<std::string>& names) {
  std::vector<api::ScenarioSpec> cells;
  for (const std::string& name : names)
    for (api::ScenarioSpec& cell : api::expand(api::scenarios().at(name)))
      cells.push_back(std::move(cell));
  return cells;
}

TEST(Session, RankerRowsEqualAHandLoopOverTheDocumentedStreams) {
  const std::vector<api::ScenarioSpec> cells =
      cells_of({"router/buffered-smoke", "router/overload-smoke"});
  const std::vector<std::string> rankers = {"random-drop", "randPr",
                                            "by-weight"};
  const std::size_t trials = 3;
  api::Session session;
  const std::vector<api::Row> rows =
      session.run_rankers(cells, rankers, trials, 9);
  ASSERT_EQ(rows.size(), cells.size() * rankers.size());

  // The stream derivation session.hpp documents, written out by hand with
  // a freshly built ranker per (draw, ranker) and played on the oracle,
  // serve_sustained_reference at one link.
  Rng master(9);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    Rng cell_rng = master.split(c);
    std::vector<Rng> wl, rk;
    for (std::size_t d = 0; d < trials; ++d) {
      wl.push_back(cell_rng.split(d));
      rk.push_back(cell_rng.split(1000000000 + d));
    }
    const ServeSpec spec{.links = 1,
                         .service_rate = cells[c].service_rate,
                         .buffer = cells[c].buffer,
                         .drop_dead_frames = true};
    for (std::size_t r = 0; r < rankers.size(); ++r) {
      double goodput = 0, served = 0, dropped = 0;
      for (std::size_t d = 0; d < trials; ++d) {
        Rng wl_rng = wl[d];
        const VideoWorkload vw = api::build_video(cells[c], wl_rng);
        auto ranker = api::rankers().make(rankers[r], rk[d]);
        const RouterStats st = serve_sustained_reference(
                                   vw.schedule, vw.stream_of, *ranker, spec)
                                   .router;
        goodput += st.goodput();
        served += static_cast<double>(st.packets_served);
        dropped += static_cast<double>(st.packets_dropped);
      }
      const api::Row& row = rows[c * rankers.size() + r];
      const std::string what = cells[c].display_label() + " " + rankers[r];
      EXPECT_EQ(value_of<std::string>(row, "sweep"), "rankers");
      EXPECT_EQ(value_of<std::string>(row, "scenario"),
                cells[c].display_label());
      EXPECT_EQ(value_of<std::string>(row, "ranker"), rankers[r]);
      EXPECT_EQ(value_of<std::uint64_t>(row, "trials"), trials);
      EXPECT_EQ(value_of<double>(row, "goodput_mean"), goodput / trials)
          << what;
      EXPECT_EQ(value_of<double>(row, "served_mean"), served / trials)
          << what;
      EXPECT_EQ(value_of<double>(row, "dropped_mean"), dropped / trials)
          << what;
    }
  }
}

TEST(Session, SustainedRowsEqualTheReferenceOnTheDocumentedStreams) {
  const std::vector<api::ScenarioSpec> cells =
      cells_of({"sustained/steady-smoke", "sustained/ramp-smoke"});
  const std::vector<std::string> rankers = {"drop-tail", "randPr"};
  const std::vector<std::size_t> workers = {1, 3};
  api::Session session;
  const std::vector<api::Row> rows =
      session.run_sustained(cells, rankers, workers, 5);
  ASSERT_EQ(rows.size(), cells.size() * rankers.size() * workers.size());

  Rng master(5);
  std::size_t i = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const api::ScenarioSpec& cell = cells[c];
    Rng cell_rng = master.split(c);
    Rng wl_rng = cell_rng.split(0);
    const Rng rk_rng = cell_rng.split(1000000000);
    const VideoWorkload vw = api::build_video(cell, wl_rng);
    const ServeSpec spec{.links = cell.links,
                         .service_rate = cell.service_rate,
                         .buffer = cell.buffer,
                         .window = cell.window};
    for (const std::string& name : rankers) {
      auto ranker = api::rankers().make(name, rk_rng);
      const SustainedStats ref = serve_sustained_reference(
          vw.schedule, vw.stream_of, *ranker, spec);
      for (std::size_t w : workers) {
        const api::Row& row = rows[i++];
        const std::string what = cell.display_label() + " " + name;
        EXPECT_EQ(value_of<std::string>(row, "sweep"), "sustained");
        EXPECT_EQ(value_of<std::string>(row, "ranker"), name);
        EXPECT_EQ(value_of<std::uint64_t>(row, "workers"), w);
        EXPECT_EQ(value_of<std::uint64_t>(row, "packets"),
                  ref.router.packets_arrived)
            << what;
        EXPECT_EQ(value_of<std::uint64_t>(row, "served"),
                  ref.router.packets_served)
            << what;
        EXPECT_EQ(value_of<std::uint64_t>(row, "refused_dead"),
                  ref.refused_dead)
            << what;
        EXPECT_EQ(value_of<std::uint64_t>(row, "evictions"), ref.evictions)
            << what;
        EXPECT_EQ(value_of<std::uint64_t>(row, "cascade_drops"),
                  ref.cascade_drops)
            << what;
        EXPECT_EQ(value_of<std::uint64_t>(row, "leftover"), ref.leftover)
            << what;
        EXPECT_EQ(value_of<double>(row, "goodput"), ref.router.goodput())
            << what;
        EXPECT_EQ(value_of<std::uint64_t>(row, "serve_p99"),
                  ref.serve_latency.percentile(99))
            << what;
        EXPECT_EQ(value_of<std::uint64_t>(row, "streams_starved"),
                  ref.streams_starved())
            << what;
        EXPECT_EQ(value_of<std::string>(row, "cross_check"), "pass");
      }
    }
  }
}

TEST(Session, RankerAndSustainedRowsAreIdenticalAtRunnerThreads1And3) {
  const std::vector<api::ScenarioSpec> buffered =
      cells_of({"router/buffered-smoke"});
  const std::vector<api::ScenarioSpec> steady =
      cells_of({"sustained/steady-smoke"});
  const std::vector<std::string> rankers = {"randPr", "random-drop",
                                            "drop-tail"};
  engine::BatchRunner one{engine::BatchOptions{1}};
  engine::BatchRunner three{engine::BatchOptions{3}};
  api::Session s1(one), s3(three);
  const auto grid1 = s1.run_rankers(buffered, rankers, 5, 3);
  const auto grid3 = s3.run_rankers(buffered, rankers, 5, 3);
  ASSERT_EQ(grid1.size(), grid3.size());
  for (std::size_t i = 0; i < grid1.size(); ++i)
    EXPECT_EQ(text_of(grid1[i]), text_of(grid3[i]));
  const auto serve1 = s1.run_sustained(steady, rankers, {2}, 3);
  const auto serve3 = s3.run_sustained(steady, rankers, {2}, 3);
  ASSERT_EQ(serve1.size(), serve3.size());
  for (std::size_t i = 0; i < serve1.size(); ++i)
    EXPECT_EQ(text_of(serve1[i], true), text_of(serve3[i], true));
}

TEST(Session, ARankersRowDoesNotDependOnItsPositionInTheList) {
  const std::vector<api::ScenarioSpec> buffered =
      cells_of({"router/buffered-smoke"});
  const std::vector<api::ScenarioSpec> steady =
      cells_of({"sustained/steady-smoke"});
  api::Session session;
  const auto alone = session.run_rankers(buffered, {"randPr"}, 4, 11);
  const auto last =
      session.run_rankers(buffered, {"random-drop", "by-weight", "randPr"},
                          4, 11);
  ASSERT_EQ(last.size(), 3 * alone.size());
  for (std::size_t c = 0; c < alone.size(); ++c)
    EXPECT_EQ(text_of(alone[c]), text_of(last[3 * c + 2]));

  const auto first = session.run_sustained(steady, {"randPr"}, {1}, 11);
  const auto second =
      session.run_sustained(steady, {"random-drop", "randPr"}, {1}, 11);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(text_of(first[0], true), text_of(second[1], true));
}

TEST(Session, RankerRunsRejectBadRequestsBeforeAnySinkSeesARow) {
  CountingSink sink;
  api::Session session;
  session.attach(sink);
  const std::vector<api::ScenarioSpec> video =
      cells_of({"router/buffered-smoke"});
  std::vector<api::ScenarioSpec> mixed = video;
  mixed.push_back(api::scenarios().at("random"));

  // An unknown ranker (listed after a good one) names the ranker catalog.
  const std::vector<std::string> unknown = {"randPr", "nope"};
  for (const std::string& message :
       {error_of([&] { session.run_rankers(video, unknown, 2, 1); }),
        error_of([&] { session.run_sustained(video, unknown, {1}, 1); })})
    for (const api::RankerInfo& info : api::rankers().entries())
      EXPECT_NE(message.find(info.name), std::string::npos) << message;

  // A non-video cell (after a good one) names it and lists the video
  // scenarios.
  for (const std::string& message :
       {error_of([&] { session.run_rankers(mixed, {"randPr"}, 2, 1); }),
        error_of([&] { session.run_sustained(mixed, {"randPr"}, {1}, 1); }),
        error_of([&] { api::resolve_ranker_run(mixed, {"randPr"}); })}) {
    EXPECT_NE(message.find("'random'"), std::string::npos) << message;
    EXPECT_NE(message.find("router/buffered-smoke"), std::string::npos)
        << message;
    EXPECT_NE(message.find("sustained/steady"), std::string::npos)
        << message;
  }
  EXPECT_THROW(session.run_rankers(video, {}, 2, 1), RequireError);
  EXPECT_EQ(sink.rows, 0u);
}

TEST(TableSink, RejectsMismatchedRowShapes) {
  api::TableSink sink;
  sink.write(api::Row{}.add("a", 1).add("b", 2.0));
  EXPECT_THROW(sink.write(api::Row{}.add("a", 1)), RequireError);
  EXPECT_THROW(sink.write(api::Row{}.add("a", 1).add("c", 2.0)),
               RequireError);
}

// ---------------------------------------------------------------------
// JsonSink golden: the one BENCH_*.json writer must satisfy the schema
// validator the CI gates on.

TEST(JsonSink, GoldenOutputPassesTheSchemaChecker) {
  const char* path = "BENCH_api_golden.json";
  {
    api::JsonSink sink("api_golden", 3);
    sink.write(api::Row{}
                   .add("sweep", "golden")
                   .add("m", std::size_t{24})
                   .add("trials", 600)
                   .add("ratio", 2.25)
                   .add("gate_met", true)
                   .add("label", "a \"quoted\" label"));
    sink.write(api::Row{}
                   .add("sweep", "golden")
                   .add("m", std::size_t{48})
                   .add("trials", 600)
                   .add("ratio", 3.5)
                   .add("gate_met", false)
                   .add("label", "plain"));
    sink.close();
  }
  // The document must at minimum parse back with the shared preamble.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"bench\":\"api_golden\""), std::string::npos);
  EXPECT_NE(text.str().find("\"threads\":3"), std::string::npos);

#ifdef OSP_SOURCE_DIR
  // Full schema check through the repository validator (the exact gate CI
  // runs on the committed artifacts).
  const std::string probe = "python3 --version > /dev/null 2>&1";
  if (std::system(probe.c_str()) != 0)
    GTEST_SKIP() << "python3 unavailable; schema check skipped";
  const std::string cmd = std::string("python3 ") + OSP_SOURCE_DIR +
                          "/scripts/check_bench_json.py " + path +
                          " > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
#endif
}

TEST(RowJson, PinsTheArtifactBytes) {
  // Every artifact byte and every shard row comes from row_json: escapes,
  // non-finite doubles as null, the integer extremes, the sign of zero
  // and the 17 significant digits a double needs to round-trip.
  const api::Row row =
      api::Row{}
          .add("text", std::string("\"\\\n\t\r\x01"))
          .add("nan", std::numeric_limits<double>::quiet_NaN())
          .add("inf", std::numeric_limits<double>::infinity())
          .add("ninf", -std::numeric_limits<double>::infinity())
          .add("i64", std::numeric_limits<std::int64_t>::min())
          .add("u64", std::numeric_limits<std::uint64_t>::max())
          .add("negzero", -0.0)
          .add("third", 1.0 / 3.0)
          .add("yes", true);
  const std::string want =
      R"({"text":"\"\\\n\t\r\u0001","nan":null,"inf":null,"ninf":null,)"
      R"("i64":-9223372036854775808,"u64":18446744073709551615,)"
      R"("negzero":-0,"third":0.33333333333333331,"yes":true})";
  EXPECT_EQ(api::row_json(row), want);

  std::ostringstream doc;
  {
    api::JsonSink sink(doc, "pin", 1);
    sink.write(row);
    sink.write_json(want);
  }
  EXPECT_EQ(doc.str(), R"({"bench":"pin","threads":1,"results":[)" + want +
                           "," + want + "]}");
}

TEST(JsonSink, ZeroRowsStillFinishACompleteDocument) {
  // An empty shard slice must never leave a malformed body behind.
  std::ostringstream text;
  {
    api::JsonSink sink(text, "empty", 2);
    sink.close();
  }
  EXPECT_EQ(text.str(), "{\"bench\":\"empty\",\"threads\":2,\"results\":[]}");
}

// ---------------------------------------------------------------------
// ShardPlan: the deterministic cell-slice assignment.

TEST(ShardPlan, ParseAcceptsCanonicalSpecsOnly) {
  const api::ShardPlan p = api::ShardPlan::parse("flag --shard", "2/5");
  EXPECT_EQ(p.index, 2u);
  EXPECT_EQ(p.count, 5u);
  for (const char* bad : {"3/2", "2/2", "0/0", "x/2", "1/", "/4", "1/2/3",
                          "", "1", "-1/4", "1/-4", "1 / 4"}) {
    const std::string msg = error_of(
        [bad] { api::ShardPlan::parse("flag --shard", bad); });
    EXPECT_NE(msg.find("flag --shard"), std::string::npos) << bad;
  }
}

TEST(ShardPlan, SlicesTileEveryGridExactly) {
  // Property check: for any (total, N) the N slices are contiguous,
  // ordered, sized within one of each other, and owner() agrees.
  for (std::size_t total : {0u, 1u, 2u, 5u, 12u, 17u, 64u}) {
    for (std::size_t count : {1u, 2u, 3u, 5u, 16u}) {
      std::size_t covered = 0;
      std::size_t lo = total / count;
      for (std::size_t i = 0; i < count; ++i) {
        const api::ShardPlan plan{i, count};
        const auto [begin, end] = plan.slice(total);
        ASSERT_EQ(begin, covered) << total << " " << count << " " << i;
        ASSERT_LE(begin, end);
        const std::size_t size = end - begin;
        ASSERT_TRUE(size == lo || size == lo + 1)
            << total << " " << count << " " << i;
        for (std::size_t c = begin; c < end; ++c)
          ASSERT_EQ(plan.owner(c, total), i) << total << " " << count;
        covered = end;
      }
      ASSERT_EQ(covered, total);
    }
  }
}

// ---------------------------------------------------------------------
// ShardSink / parse_shard_partial / merge_shards.

api::Row mixed_row(std::size_t salt) {
  return api::Row{}
      .add("instance", "cell-" + std::to_string(salt))
      .add("policy", "randpr")
      .add("trials", std::uint64_t{3 + salt})
      .add("benefit_mean", 1.25 + static_cast<double>(salt) / 3.0)
      .add("benefit_ci95", 0.0)
      .add("ok", salt % 2 == 0)
      .add("delta", static_cast<std::int64_t>(salt) - 2);
}

api::ShardManifest manifest_for(std::size_t index, std::size_t count,
                                std::size_t begin, std::size_t end) {
  api::ShardManifest m;
  m.bench = "t";
  m.fingerprint = 0xfeedfacecafebeefULL;
  m.shard_index = index;
  m.shard_count = count;
  m.cell_begin = begin;
  m.cell_end = end;
  m.total_cells = 4;
  m.threads = 2;
  return m;
}

std::string partial_text(std::size_t index, std::size_t count,
                         std::size_t begin, std::size_t end) {
  std::ostringstream os;
  api::ShardSink sink(os, manifest_for(index, count, begin, end));
  for (std::size_t c = begin; c < end; ++c) sink.write(mixed_row(c));
  sink.close();
  return os.str();
}

TEST(ShardSink, PartialRoundTripsThroughTheParser) {
  const std::string text = partial_text(0, 2, 0, 2);
  std::istringstream in(text);
  const api::ShardPartial part = api::parse_shard_partial(in, "mem");
  EXPECT_EQ(part.manifest.bench, "t");
  EXPECT_EQ(part.manifest.fingerprint, 0xfeedfacecafebeefULL);
  EXPECT_EQ(part.manifest.shard_index, 0u);
  EXPECT_EQ(part.manifest.shard_count, 2u);
  EXPECT_EQ(part.manifest.cell_begin, 0u);
  EXPECT_EQ(part.manifest.cell_end, 2u);
  EXPECT_EQ(part.manifest.total_cells, 4u);
  EXPECT_EQ(part.manifest.threads, 2u);
  ASSERT_EQ(part.rows.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c)
    EXPECT_EQ(part.rows[c], api::row_json(mixed_row(c)));
}

TEST(ShardSink, EmptySliceIsAValidMergeablePartial) {
  // N > cells: a shard can legitimately own nothing and its file must
  // still parse and merge (skipped by the tiling check, not an overlap).
  std::vector<api::ShardPartial> partials;
  for (const std::string& text :
       {partial_text(0, 3, 0, 4), partial_text(1, 3, 4, 4),
        partial_text(2, 3, 4, 4)}) {
    std::istringstream in(text);
    partials.push_back(api::parse_shard_partial(in, "mem"));
  }
  const api::MergedShards merged = api::merge_shards(std::move(partials));
  EXPECT_EQ(merged.bench, "t");
  EXPECT_EQ(merged.threads, 2u);
  EXPECT_EQ(merged.rows.size(), 4u);
}

TEST(ShardSink, CloseRequiresExactlyTheSlicesRows) {
  std::ostringstream os;
  api::ShardSink sink(os, manifest_for(0, 2, 0, 2));
  sink.write(mixed_row(0));
  EXPECT_THROW(sink.close(), RequireError);  // one row short
}

TEST(ShardPartial, TruncatedFilesAreRejected) {
  std::string text = partial_text(0, 2, 0, 2);
  // Chop the footer off: simulates a partial upload / killed shard.
  const std::size_t cut = text.rfind("total ");
  ASSERT_NE(cut, std::string::npos);
  std::istringstream in(text.substr(0, cut));
  EXPECT_THROW(api::parse_shard_partial(in, "mem"), RequireError);
  // Corrupt the footer count.
  std::string bad = text;
  bad.replace(text.rfind("total 2"), 7, "total 9");
  std::istringstream in2(bad);
  EXPECT_THROW(api::parse_shard_partial(in2, "mem"), RequireError);
}

TEST(ShardPartial, ACorruptedRowFailsWithItsFileAndLine) {
  // Line 9 is cell 1's row: 7 manifest lines, then cell 0's row.
  const std::string text = partial_text(0, 2, 0, 2);
  const std::string good = "\"policy\":\"randpr\"";
  for (const std::string& corrupt :
       {std::string("\"policy\":randpr"), std::string("\"policy\":[1]"),
        std::string("\"policy\": \"randpr\""),
        std::string("\"policy\":\"ran\\qpr\""),
        std::string("\"policy\":\"randpr\"}")}) {
    std::string bad = text;
    bad.replace(text.rfind(good), good.size(), corrupt);
    std::istringstream in(bad);
    const std::string msg =
        error_of([&] { api::parse_shard_partial(in, "part0"); });
    EXPECT_EQ(msg.rfind("part0:9: row for cell 1 ", 0), 0u) << corrupt;
    EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
  }
}

TEST(MergeShards, EnumeratedErrorsNameTheProblem) {
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return api::parse_shard_partial(in, "mem");
  };
  const std::string lo = partial_text(0, 2, 0, 2);
  const std::string hi = partial_text(1, 2, 2, 4);

  {  // overlap: the same slice twice
    std::vector<api::ShardPartial> parts{parse(lo), parse(lo), parse(hi)};
    const std::string msg = error_of(
        [&] { api::merge_shards(std::move(parts)); });
    EXPECT_NE(msg.find("overlap"), std::string::npos) << msg;
  }
  {  // gap: missing middle slice
    std::vector<api::ShardPartial> parts{parse(lo)};
    const std::string msg = error_of(
        [&] { api::merge_shards(std::move(parts)); });
    EXPECT_NE(msg.find("gap"), std::string::npos) << msg;
  }
  {  // fingerprint mismatch
    api::ShardPartial other = parse(hi);
    other.manifest.fingerprint ^= 1;
    std::vector<api::ShardPartial> parts{parse(lo), std::move(other)};
    const std::string msg = error_of(
        [&] { api::merge_shards(std::move(parts)); });
    EXPECT_NE(msg.find("fingerprint mismatch"), std::string::npos) << msg;
  }
  {  // bench-name mismatch
    api::ShardPartial other = parse(hi);
    other.manifest.bench = "u";
    std::vector<api::ShardPartial> parts{parse(lo), std::move(other)};
    const std::string msg = error_of(
        [&] { api::merge_shards(std::move(parts)); });
    EXPECT_NE(msg.find("bench"), std::string::npos) << msg;
  }
  {  // threads mismatch (the merged preamble records one worker count)
    api::ShardPartial other = parse(hi);
    other.manifest.threads = 7;
    std::vector<api::ShardPartial> parts{parse(lo), std::move(other)};
    const std::string msg = error_of(
        [&] { api::merge_shards(std::move(parts)); });
    EXPECT_NE(msg.find("threads"), std::string::npos) << msg;
  }
  EXPECT_THROW(api::merge_shards({}), RequireError);
}

// ---------------------------------------------------------------------
// The headline guarantee: shard → merge → JsonSink is byte-identical to
// the unsharded run, for every shard count.

TEST(ShardedGrid, MergedJsonIsByteIdenticalForAnyShardCount) {
  Rng gen(77);
  Instance a = random_instance(12, 20, 3, WeightModel::unit(), gen);
  Instance b = random_instance(8, 12, 2, WeightModel::unit(), gen);

  api::Session session;
  auto base_grid = [&] {
    engine::GridSpec grid;
    grid.instances = {&a, &b};
    grid.algorithms.push_back(
        api::grid_column(api::policies().at("randpr")));
    grid.algorithms.push_back(
        api::grid_column(api::policies().at("greedy:maxw")));
    grid.trials = 5;
    grid.master_seed = 99;
    return grid;
  };
  const std::size_t total = 4;  // 2 instances × 2 policies

  // Unsharded baseline through the ordinary JSON sink.
  std::ostringstream want;
  {
    api::JsonSink sink(want, "grid", session.threads());
    api::Session s;
    s.attach(sink);
    s.run_grid(base_grid(), {"A", "B"});
    s.close_sinks();
  }

  for (std::size_t count : {1u, 2u, 3u}) {
    std::vector<api::ShardPartial> partials;
    for (std::size_t i = 0; i < count; ++i) {
      const api::ShardPlan plan{i, count};
      const auto [begin, end] = plan.slice(total);
      api::ShardManifest m;
      m.bench = "grid";
      m.fingerprint = 0xabc;  // same grid, same constant
      m.shard_index = i;
      m.shard_count = count;
      m.cell_begin = begin;
      m.cell_end = end;
      m.total_cells = total;
      m.threads = session.threads();

      std::ostringstream text;
      {
        api::ShardSink sink(text, m);
        api::Session s;
        s.attach(sink);
        engine::GridSpec grid = base_grid();
        grid.cell_begin = begin;
        grid.cell_end = end;
        s.run_grid(grid, {"A", "B"});
        s.close_sinks();
      }
      std::istringstream in(text.str());
      partials.push_back(api::parse_shard_partial(in, "mem"));
    }
    const api::MergedShards merged = api::merge_shards(std::move(partials));
    std::ostringstream got;
    {
      api::JsonSink sink(got, merged.bench, merged.threads);
      for (const std::string& row : merged.rows) sink.write_json(row);
      sink.close();
    }
    EXPECT_EQ(got.str(), want.str()) << "shard count " << count;
  }
}

TEST(ShardedGrid, RatioRowsSurviveShardMergeByteIdentical) {
  // The adversarial dashboard's rows carry awkward doubles (ratios like
  // 1/3 and 62.5/7, tiny LP values).  Push such rows through the full
  // ShardSink → parse_shard_partial → merge_shards → JsonSink pipeline
  // and require byte-identity with the direct JsonSink document.
  auto ratio_row = [](std::size_t i) {
    api::Row row;
    row.add("sweep", "theorem3");
    row.add("scenario", "adversarial/theorem3 sigma=2 k=2");
    row.add("sigma", std::uint64_t{2} + i);
    row.add("policy", i % 2 ? "randpr" : "greedy-first");
    row.add("deterministic", i % 2 == 0);
    row.add("alg_mean", 1.0 / 3.0 + static_cast<double>(i));
    row.add("alg_ci95", 0.0625);
    row.add("opt", 5.217391304347826);
    row.add("opt_exact", i % 2 == 0);
    row.add("lp_upper", 1e-30);
    row.add("ratio", 62.5 / 7.0);
    return row;
  };
  const std::size_t total = 4;  // one row per grid cell

  std::ostringstream want;
  {
    api::JsonSink sink(want, "adversarial", 1);
    for (std::size_t i = 0; i < total; ++i) sink.write(ratio_row(i));
    sink.close();
  }

  for (std::size_t count : {1u, 2u, 3u}) {
    std::vector<api::ShardPartial> partials;
    for (std::size_t i = 0; i < count; ++i) {
      const api::ShardPlan plan{i, count};
      const auto [begin, end] = plan.slice(total);
      api::ShardManifest m;
      m.bench = "adversarial";
      m.fingerprint = 0x5eed;
      m.shard_index = i;
      m.shard_count = count;
      m.cell_begin = begin;
      m.cell_end = end;
      m.total_cells = total;
      m.threads = 1;

      std::ostringstream text;
      {
        api::ShardSink sink(text, m);
        for (std::size_t cell = begin; cell < end; ++cell)
          sink.write(ratio_row(cell));
        sink.close();
      }
      std::istringstream in(text.str());
      partials.push_back(api::parse_shard_partial(in, "mem"));
    }
    const api::MergedShards merged = api::merge_shards(std::move(partials));
    std::ostringstream got;
    {
      api::JsonSink sink(got, merged.bench, merged.threads);
      for (const std::string& row : merged.rows) sink.write_json(row);
      sink.close();
    }
    EXPECT_EQ(got.str(), want.str()) << "shard count " << count;
  }
}

// ---------------------------------------------------------------------
// grid_fingerprint: same grid hashes equal, any knob change hashes apart.

TEST(GridFingerprint, SensitiveToEveryGridKnobButNotTheShardPlan) {
  std::vector<api::ScenarioSpec> cells = {api::scenarios().at("random")};
  const std::vector<std::string> policies = {"randpr", "greedy:maxw"};
  const std::uint64_t base =
      api::grid_fingerprint(cells, policies, 5, 1);
  EXPECT_EQ(base, api::grid_fingerprint(cells, policies, 5, 1));

  EXPECT_NE(base, api::grid_fingerprint(cells, policies, 6, 1));
  EXPECT_NE(base, api::grid_fingerprint(cells, policies, 5, 2));
  EXPECT_NE(base,
            api::grid_fingerprint(cells, {"randpr", "hashpr"}, 5, 1));
  EXPECT_NE(base, api::grid_fingerprint(cells, {"randpr"}, 5, 1));

  std::vector<api::ScenarioSpec> bigger = cells;
  bigger[0].set("m", "99");
  EXPECT_NE(base, api::grid_fingerprint(bigger, policies, 5, 1));
}

TEST(GridFingerprint, SensitiveToAdversarialShapeKnobs) {
  // The adversarial sweeps key their gadgets on sigma/k/ell/t, so a
  // merge across shards built from different gadget shapes must be
  // rejected by the fingerprint — each knob has to perturb the hash.
  std::vector<api::ScenarioSpec> cells =
      api::expand(api::scenarios().at("adversarial/theorem3"));
  const std::vector<std::string> policies = {"randpr"};
  const std::uint64_t base = api::grid_fingerprint(cells, policies, 3, 1);
  EXPECT_EQ(base, api::grid_fingerprint(cells, policies, 3, 1));
  for (const char* knob : {"sigma", "k", "ell", "t"}) {
    std::vector<api::ScenarioSpec> changed = cells;
    changed[0].set(knob, "9");
    EXPECT_NE(base, api::grid_fingerprint(changed, policies, 3, 1)) << knob;
  }
}

}  // namespace
}  // namespace osp
