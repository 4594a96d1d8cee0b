// osp_cli — command-line driver for the library, built entirely on the
// experiment API layer (src/api): policies and workloads resolve through
// the registries, runs go through a Session, and results stream through
// ResultSinks.
//
//   osp_cli list  [--policies] [--scenarios] [--rankers] [--markdown]
//   osp_cli gen   <scenario> [--out FILE] [--seed S] [--m M] [--n N] ...
//   osp_cli stats <file|->
//   osp_cli run   [file|-] [--alg SPEC] [--seed S] [--trials T]
//   osp_cli solve <file|->
//   osp_cli bench [--scenario NAMES] [--config FILE] [--alg SPECS]
//                 [--ranker NAMES] [--trials T] [--seed S] [--json NAME]
//                 [--dry-run] [--shard i/N --out PART]
//   osp_cli merge PART... (--json NAME | --out FILE)
//   osp_cli version
//
// `list` enumerates everything the registries know; adding a policy, a
// scenario, or a ranker in its home file makes it appear here (and in
// `bench`, and in the test sweeps) with no CLI change.  `list --markdown`
// emits the same catalog as the markdown document checked in as
// docs/CATALOG.md (CI regenerates it and fails on drift).  Scenarios with
// sweep axes expand into one bench column per cell; `bench --config`
// loads a scenario (axes included) from a key=value file, and
// `bench --ranker` sweeps the buffered-router FrameRankers over a video
// scenario instead of packing policies.
//
// Sharded grids: `bench --dry-run` prints the expanded cell list without
// running anything; `bench --shard i/N --out PART` runs only shard i's
// contiguous slice of the cells and writes a partial-result file; `merge`
// validates that partial files tile the grid exactly (matching
// fingerprints, no gaps, no overlaps — enumerated errors otherwise) and
// appends the row texts through JsonSink, producing a BENCH_*.json that
// is bit-identical to the unsharded `bench --json` run.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "algos/offline.hpp"
#include "api/policy_registry.hpp"
#include "api/ranker_registry.hpp"
#include "api/result_sink.hpp"
#include "api/scenario.hpp"
#include "api/session.hpp"
#include "api/shard.hpp"
#include "core/bounds.hpp"
#include "core/io.hpp"
#include "engine/batch_runner.hpp"
#include "engine/trial.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "util/require.hpp"

namespace osp::cli {
namespace {

struct Args {
  std::string command;
  std::vector<std::string> positionals;
  std::map<std::string, std::string> options;

  /// The single file/name argument most commands take (`merge` is the
  /// one command that accepts several).
  std::string positional() const {
    return positionals.empty() ? std::string() : positionals.front();
  }
  bool has(const std::string& key) const { return options.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  /// Strict numeric flag parse; fails through RequireError naming the
  /// flag (the seed CLI aborted with an uncaught std::invalid_argument).
  std::size_t get_num(const std::string& key, std::size_t fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    return api::parse_size("flag --" + key, it->second);
  }
};

/// Flags that are pure switches (no value follows them).
bool is_boolean_flag(const std::string& name) {
  return name == "policies" || name == "scenarios" || name == "rankers" ||
         name == "markdown" || name == "dry-run" || name == "sustained";
}

Args parse(int argc, char** argv) {
  Args args;
  OSP_REQUIRE_MSG(argc >= 2, "usage: osp_cli <command> ... (see --help)");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string word = argv[i];
    if (word.rfind("--", 0) == 0) {
      if (is_boolean_flag(word.substr(2))) {
        args.options[word.substr(2)] = "";
        continue;
      }
      OSP_REQUIRE_MSG(i + 1 < argc, "missing value for " << word);
      args.options[word.substr(2)] = argv[++i];
    } else {
      args.positionals.push_back(word);
    }
  }
  return args;
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// Applies every generator flag present on the command line to `spec`
/// (run-plumbing flags are skipped).
api::ScenarioSpec& apply_overrides(api::ScenarioSpec& spec,
                                   const Args& args) {
  for (const auto& [key, value] : args.options) {
    if (key == "out" || key == "seed" || key == "trials" || key == "alg" ||
        key == "scenario" || key == "json" || key == "config" ||
        key == "ranker" || key == "shard" || key == "dry-run" ||
        key == "sustained" || key == "workers")
      continue;  // run plumbing, not generator parameters
    spec.set(key, value);
  }
  return spec;
}

/// Copies the named scenario out of the registry and applies every
/// generator flag present on the command line.
api::ScenarioSpec scenario_from(const Args& args, const std::string& name) {
  api::ScenarioSpec spec = api::scenarios().at(name);
  return apply_overrides(spec, args);
}

Instance load_from(const std::string& where) {
  if (where.empty() || where == "-") return read_instance(std::cin);
  return load_instance(where);
}

int cmd_list(const Args& args) {
  // No section flag: every section.  Any section flag selects only the
  // named sections.
  const bool any = args.has("policies") || args.has("scenarios") ||
                   args.has("rankers");
  const bool show_policies = !any || args.has("policies");
  const bool show_scenarios = !any || args.has("scenarios");
  const bool show_rankers = !any || args.has("rankers");

  if (args.has("markdown")) {
    // The markdown catalog is checked in as docs/CATALOG.md and CI
    // regenerates it on every run — the output here must stay
    // byte-stable for a given registry state.
    std::cout << "# osp catalog — policies, scenarios, rankers\n\n"
              << "Generated by `osp_cli list --markdown`; regenerate with\n"
              << "`./build/osp_cli list --markdown > docs/CATALOG.md`.\n"
              << "CI rebuilds this file and fails on drift — edit the\n"
              << "registries, never this document.\n";
    if (show_policies)
      std::cout << "\n## Policies (" << api::policies().entries().size()
                << ")\n\n"
                << api::policies().render_markdown();
    if (show_scenarios)
      std::cout << "\n## Scenarios (" << api::scenarios().entries().size()
                << ")\n\n"
                << api::scenarios().render_markdown();
    if (show_rankers)
      std::cout << "\n## Rankers (" << api::rankers().entries().size()
                << ")\n\n"
                << api::rankers().render_markdown();
    return 0;
  }

  if (show_policies) {
    std::cout << "policies (" << api::policies().entries().size() << "):\n"
              << api::policies().render_catalog();
  }
  if (show_scenarios) {
    if (show_policies) std::cout << '\n';
    std::cout << "scenarios (" << api::scenarios().entries().size()
              << "):\n"
              << api::scenarios().render_catalog();
  }
  if (show_rankers) {
    if (show_policies || show_scenarios) std::cout << '\n';
    std::cout << "rankers (" << api::rankers().entries().size() << "):\n"
              << api::rankers().render_catalog();
  }
  return 0;
}

int cmd_gen(const Args& args) {
  OSP_REQUIRE_MSG(!args.positional().empty(),
                  "gen needs a scenario name; registered scenarios:\n"
                      << api::scenarios().render_catalog());
  api::ScenarioSpec spec = scenario_from(args, args.positional());
  if (!spec.sweep.empty())
    std::cerr << "note: scenario '" << spec.name
              << "' declares sweep axes; gen builds the base cell only "
                 "(bench expands the grid)\n";
  Rng rng(args.get_num("seed", 1));
  Instance inst = api::build_instance(spec, rng);
  const std::string out = args.get("out", "");
  if (out.empty()) {
    write_instance(std::cout, inst);
  } else {
    save_instance(out, inst);
    std::cerr << "wrote " << inst.describe() << " to " << out << "\n";
  }
  return 0;
}

int cmd_stats(const Args& args) {
  OSP_REQUIRE_MSG(!args.positional().empty(),
                  "stats needs a file (or '-' for stdin)");
  Instance inst = load_from(args.positional());
  InstanceStats st = inst.stats();
  Table t({"quantity", "value"});
  t.row({"sets (m)", fmt(st.num_sets)});
  t.row({"elements (n)", fmt(st.num_elements)});
  t.row({"total weight", fmt(st.total_weight, 3)});
  t.row({"kmax", fmt(st.k_max)});
  t.row({"k avg", fmt(st.k_avg, 3)});
  t.row({"sigma max", fmt(st.sigma_max)});
  t.row({"sigma avg", fmt(st.sigma_avg, 3)});
  t.row({"nu avg (adjusted)", fmt(st.nu_avg, 3)});
  t.row({"uniform size", st.uniform_size ? "yes" : "no"});
  t.row({"uniform load", st.uniform_load ? "yes" : "no"});
  t.row({"unit capacity", st.unit_capacity ? "yes" : "no"});
  t.row({"Theorem 1 bound", fmt(theorem1_bound(st), 3)});
  t.row({"Corollary 6 bound", fmt(corollary6_bound(st), 3)});
  if (!st.unit_capacity) t.row({"Theorem 4 bound", fmt(theorem4_bound(st), 3)});
  t.print(std::cout);
  return 0;
}

/// --trials, bounded before any work so an out-of-range count is a
/// one-line error, never an empty run or a count truncated to int.
std::size_t trials_flag(const Args& args, std::size_t fallback) {
  const std::size_t trials = args.get_num("trials", fallback);
  OSP_REQUIRE_MSG(trials >= 1 && trials <= 1000000000,
                  "flag --trials must be in [1, 1e9], got " << trials);
  return trials;
}

int cmd_run(const Args& args) {
  const std::string name = args.get("alg", "randpr");
  const std::size_t trials = trials_flag(args, 1);
  Rng master(args.get_num("seed", 1));

  // Resolve before touching the input so an unknown spec fails with the
  // registry catalog in the message, whatever state the instance is in.
  const api::PolicyInfo& policy = api::policies().at(name);
  // A bare `run` on a terminal would block forever waiting for an
  // instance; only read stdin implicitly when something is piped in.
  OSP_REQUIRE_MSG(!args.positional().empty() || !isatty(fileno(stdin)),
                  "run needs a file (or pipe an instance in / pass '-')");
  Instance inst = load_from(args.positional());

  // Trial t plays make(master.split(t)) through the engine's trial: one
  // trial directly, for its completed-set count, more through
  // Session::measure on the shared runner.
  if (trials == 1) {
    engine::TrialContext ctx;
    const engine::TrialResult r = engine::run_play_trial_cached(
        inst, api::grid_column(policy), 0, master.split(0), ctx);
    std::cout << policy.name << ": completed " << r.completed
              << " sets, benefit " << r.benefit << "\n";
  } else {
    const RunningStat benefit = api::Session().measure(
        inst, policy.make, master, static_cast<int>(trials));
    std::cout << policy.name << " over " << trials
              << " trials: E[benefit] = " << benefit.mean() << " +/- "
              << benefit.ci95_halfwidth() << "\n";
  }
  return 0;
}

int cmd_solve(const Args& args) {
  OSP_REQUIRE_MSG(!args.positional().empty(),
                  "solve needs a file (or '-' for stdin)");
  Instance inst = load_from(args.positional());
  OfflineResult greedy = greedy_offline(inst);
  OfflineResult opt = exact_optimum(inst);
  Table t({"solver", "value", "note"});
  t.row({"greedy offline", fmt(greedy.value, 3), "k-approximation"});
  t.row({"branch & bound", fmt(opt.value, 3),
         opt.exact ? "exact" : "node limit hit (lower bound)"});
  if (inst.num_sets() <= 120) {
    // A simplex that reaches its pivot limit costs the LP row only.
    try {
      t.row({"LP relaxation", fmt(lp_upper_bound(inst), 3), "upper bound"});
    } catch (const RequireError& e) {
      t.row({"LP relaxation", "-", std::string("not computed: ") + e.what()});
    }
  }
  t.print(std::cout);
  return 0;
}

/// Opens the optional --json sink, refusing to overwrite any existing
/// BENCH_*.json (the bench binaries' committed artifacts carry
/// schema-gated key sets a CLI grid would break).
std::unique_ptr<api::JsonSink> open_json_sink(const Args& args,
                                              api::Session& session) {
  if (!args.has("json")) return nullptr;
  const std::string json_name = args.get("json", "cli");
  OSP_REQUIRE_MSG(!json_name.empty(),
                  "--json needs a non-empty artifact name");
  const std::string json_path = "BENCH_" + json_name + ".json";
  OSP_REQUIRE_MSG(!std::ifstream(json_path).good(),
                  json_path << " already exists; refusing to overwrite "
                               "— pick another name or remove it first");
  auto json = std::make_unique<api::JsonSink>(json_name, session.threads());
  session.attach(*json);
  return json;
}

/// `bench --ranker` / `bench --sustained`: the buffered-router ranker
/// grid and the sustained serving run — api::Session's measurement kinds
/// (session.hpp documents their streams and rows), so this prints what
/// bench_router records for the same scenario, rankers and seed.
int bench_router_kind(const Args& args, api::Session& session,
                      const std::vector<api::ScenarioSpec>& cells, int trials,
                      std::uint64_t seed) {
  const bool sustained = args.has("sustained");
  const std::vector<std::string> rankers =
      sustained && !args.has("ranker") ? std::vector<std::string>{"randPr"}
                                       : split_commas(args.get("ranker", ""));
  const std::size_t workers = args.get_num("workers", 1);
  OSP_REQUIRE_MSG(workers >= 1 && workers <= engine::kMaxThreads,
                  "flag --workers must be in [1, " << engine::kMaxThreads
                                                  << "], got " << workers);
  // Fail on an unknown ranker or a non-video scenario before the --json
  // sink creates its never-overwrite artifact file.
  api::resolve_ranker_run(cells, rankers);

  api::TableSink table;
  session.attach(table);
  std::unique_ptr<api::JsonSink> json = open_json_sink(args, session);
  if (sustained)
    session.run_sustained(cells, rankers, {workers}, seed);
  else
    session.run_rankers(cells, rankers, static_cast<std::size_t>(trials),
                        seed);
  session.close_sinks();
  table.print(std::cout);
  if (json != nullptr)
    std::cerr << "wrote BENCH_" << args.get("json", "cli") << ".json\n";
  return 0;
}

int cmd_bench(const Args& args) {
  // Scenario columns: named registry entries and/or a config file, each
  // expanded through its sweep axes into one column per cell.
  std::vector<api::ScenarioSpec> specs;
  if (args.has("scenario") || !args.has("config"))
    for (const std::string& name :
         split_commas(args.get("scenario", "random")))
      specs.push_back(scenario_from(args, name));
  if (args.has("config")) {
    api::ScenarioSpec spec =
        api::ScenarioSpec::from_file(args.get("config", ""));
    specs.push_back(apply_overrides(spec, args));
  }
  OSP_REQUIRE_MSG(!specs.empty(), "bench needs --scenario names or --config");

  // A generator flag on a swept key would be silently clobbered by the
  // axis values during expansion; refuse instead of benching something
  // other than what the user asked for.
  for (const api::ScenarioSpec& spec : specs)
    for (const api::SweepAxis& axis : spec.sweep)
      for (const std::string& key : axis.keys)
        OSP_REQUIRE_MSG(!args.has(key),
                        "--" << key << " conflicts with scenario '"
                             << spec.name << "', which sweeps '" << key
                             << "'; change the axis (sweep." << key
                             << " = …) in a config file instead");

  const std::uint64_t seed = args.get_num("seed", 1);

  std::vector<api::ScenarioSpec> cells;
  int trials = -1;
  for (const api::ScenarioSpec& spec : specs) {
    trials = std::max(trials, spec.default_trials);
    for (api::ScenarioSpec& cell : api::expand(spec))
      cells.push_back(std::move(cell));
  }
  if (args.has("trials")) trials = static_cast<int>(trials_flag(args, 100));
  OSP_REQUIRE_MSG(trials >= 1, "flag --trials must be at least 1");

  // --shard i/N slices the expanded (instance × policy) cell grid; --out
  // names the partial-result file the slice is written to.  Parse the
  // plan before any work so a malformed spec is a one-line error.
  const bool sharded = args.has("shard");
  api::ShardPlan plan;
  if (sharded)
    plan = api::ShardPlan::parse("flag --shard", args.get("shard", ""));
  OSP_REQUIRE_MSG(sharded || !args.has("out"),
                  "bench --out writes a shard's partial-result file and "
                  "needs --shard i/N next to it");

  api::Session session;
  OSP_REQUIRE_MSG(args.has("sustained") || !args.has("workers"),
                  "--workers sets the serving runtime's worker count and "
                  "needs --sustained next to it");
  if (args.has("sustained")) {
    // The serving runtime is its own experiment: --alg's packing grid and
    // --ranker's trial sweep answer different questions, and a sustained
    // run is one deterministic pass, so trial/shard plumbing is refused
    // rather than silently ignored.
    OSP_REQUIRE_MSG(!args.has("alg"),
                    "--sustained and --alg are mutually exclusive: "
                    "--sustained drives the serving runtime, --alg runs a "
                    "packing grid");
    OSP_REQUIRE_MSG(!sharded && !args.has("dry-run"),
                    "--shard/--dry-run slice the packing-policy grid; "
                    "--sustained runs are not shardable (one deterministic "
                    "run per cell)");
    OSP_REQUIRE_MSG(!args.has("trials"),
                    "--sustained is one long deterministic run per cell; "
                    "vary --seed for a different draw instead of --trials");
    return bench_router_kind(args, session, cells, trials, seed);
  }
  if (args.has("ranker")) {
    // A policy grid and a ranker sweep are different experiments; a
    // silently ignored --alg would read as "the policy ran too".
    OSP_REQUIRE_MSG(!args.has("alg"),
                    "--ranker and --alg are mutually exclusive: rankers "
                    "drive the buffered router, --alg runs a packing grid");
    OSP_REQUIRE_MSG(!sharded && !args.has("dry-run"),
                    "--shard/--dry-run slice the packing-policy grid; "
                    "--ranker sweeps are not shardable (run them whole)");
    return bench_router_kind(args, session, cells, trials, seed);
  }

  // Policy rows: every registered policy unless --alg narrows the sweep.
  std::vector<std::string> alg_specs;
  if (args.has("alg")) {
    alg_specs = split_commas(args.get("alg", ""));
    OSP_REQUIRE_MSG(!alg_specs.empty(),
                    "--alg needs policy specs (or omit it to sweep every "
                    "registered policy)");
  } else {
    alg_specs = api::policies().names();
  }

  // A packing grid swept over a key build_instance ignores (buffer,
  // service-rate, capacity on non-video families, …) would print
  // identical columns whose labels claim a parameter varied.
  for (const api::ScenarioSpec& spec : specs)
    for (const api::SweepAxis& axis : spec.sweep)
      for (const std::string& key : axis.keys)
        if (!api::affects_instance(key, spec.family))
          std::cerr << "note: sweep key '" << key << "' of scenario '"
                    << spec.name
                    << "' does not affect the packing instance; its "
                       "columns differ only in label (use --ranker for "
                       "the router knobs)\n";

  // Resolve the policy specs once: canonical names feed the dry-run
  // listing, the grid fingerprint, and the grid columns alike, so alias
  // spellings of the same policy fingerprint identically.
  std::vector<const api::PolicyInfo*> policy_infos;
  for (const std::string& spec : alg_specs)
    policy_infos.push_back(&api::policies().at(spec));
  const std::size_t num_algs = policy_infos.size();
  const std::size_t total_cells = cells.size() * num_algs;

  if (args.has("dry-run")) {
    // The expanded cell list, one line per grid cell in canonical
    // row-major order, restricted to the shard's slice when --shard is
    // given; nothing is built or run.
    std::size_t begin = 0, end = total_cells;
    if (sharded) {
      const auto slice = plan.slice(total_cells);
      begin = slice.first;
      end = slice.second;
    }
    Table t({"cell", "shard", "instance", "policy"});
    for (std::size_t c = begin; c < end; ++c)
      t.row({fmt(c), fmt(plan.owner(c, total_cells)),
             cells[c / num_algs].display_label(),
             policy_infos[c % num_algs]->name});
    t.print(std::cout);
    std::cout << total_cells << " cells (" << cells.size() << " instances x "
              << num_algs << " policies), trials=" << trials
              << "; dry run, nothing executed\n";
    return 0;
  }

  std::vector<Instance> instances;
  std::vector<const Instance*> instance_ptrs;
  std::vector<std::string> labels;
  for (const api::ScenarioSpec& cell : cells) {
    Rng rng(seed);
    instances.push_back(api::build_instance(cell, rng));
    labels.push_back(cell.display_label());
  }
  for (const Instance& inst : instances) instance_ptrs.push_back(&inst);

  engine::GridSpec grid;
  grid.instances = instance_ptrs;
  for (const api::PolicyInfo* info : policy_infos)
    grid.algorithms.push_back(api::grid_column(*info));
  grid.trials = trials;
  grid.master_seed = seed;

  api::TableSink table;
  session.attach(table);
  std::unique_ptr<api::JsonSink> json;
  std::unique_ptr<api::ShardSink> shard;
  if (sharded) {
    // A sharded run writes a partial-result file instead of BENCH JSON;
    // --json only records the artifact name in the manifest, so `merge`
    // can produce the same BENCH_<name>.json the unsharded run would.
    const std::string out = args.get("out", "");
    OSP_REQUIRE_MSG(!out.empty(),
                    "--shard needs --out FILE naming the partial-result "
                    "file this slice is written to");
    const auto slice = plan.slice(total_cells);
    grid.cell_begin = slice.first;
    grid.cell_end = slice.second;
    std::vector<std::string> policy_names;
    for (const api::PolicyInfo* info : policy_infos)
      policy_names.push_back(info->name);
    api::ShardManifest manifest;
    manifest.bench = args.get("json", "cli");
    manifest.fingerprint =
        api::grid_fingerprint(cells, policy_names, trials, seed);
    manifest.shard_index = plan.index;
    manifest.shard_count = plan.count;
    manifest.cell_begin = slice.first;
    manifest.cell_end = slice.second;
    manifest.total_cells = total_cells;
    manifest.threads = session.threads();
    shard = std::make_unique<api::ShardSink>(out, manifest);
    session.attach(*shard);
  } else {
    json = open_json_sink(args, session);
  }

  session.run_grid(grid, labels);
  session.close_sinks();
  table.print(std::cout);
  if (shard != nullptr)
    std::cerr << "wrote shard " << plan.index << "/" << plan.count
              << " (cells " << grid.cell_begin << ".." << grid.cell_end
              << " of " << total_cells << ") to " << args.get("out", "")
              << "\n";
  if (json != nullptr)
    std::cerr << "wrote BENCH_" << args.get("json", "cli") << ".json\n";
  return 0;
}

// ---------------------------------------------------------------------
// merge

/// `merge PART... (--json NAME | --out FILE)`: validates that the
/// partial-result files tile one grid exactly and appends their row
/// texts, in canonical cell order, through the same JsonSink `bench
/// --json` uses — so the merged artifact is bit-identical to an
/// unsharded run's.
int cmd_merge(const Args& args) {
  OSP_REQUIRE_MSG(!args.positionals.empty(),
                  "merge needs partial-result files: osp_cli merge PART... "
                  "(--json NAME | --out FILE)");
  OSP_REQUIRE_MSG(args.has("json") != args.has("out"),
                  "merge needs exactly one of --json NAME (write "
                  "BENCH_NAME.json) or --out FILE (write an explicit path)");

  std::vector<api::ShardPartial> partials;
  for (const std::string& path : args.positionals) {
    std::ifstream in(path);
    OSP_REQUIRE_MSG(in.good(),
                    "cannot open partial-result file '" << path << "'");
    partials.push_back(api::parse_shard_partial(in, path));
  }
  api::MergedShards merged = api::merge_shards(std::move(partials));

  if (args.has("json")) {
    const std::string name = args.get("json", "");
    OSP_REQUIRE_MSG(name == merged.bench,
                    "--json '" << name << "' does not match the bench name '"
                               << merged.bench
                               << "' recorded in the shard manifests");
    const std::string path = "BENCH_" + name + ".json";
    OSP_REQUIRE_MSG(!std::ifstream(path).good(),
                    path << " already exists; refusing to overwrite "
                            "— pick another name or remove it first");
    api::JsonSink sink(name, merged.threads);
    for (const std::string& row : merged.rows) sink.write_json(row);
    sink.close();
    std::cerr << "wrote " << path << " (" << merged.rows.size()
              << " rows from " << args.positionals.size() << " partials)\n";
  } else {
    const std::string path = args.get("out", "");
    std::ofstream os(path);
    OSP_REQUIRE_MSG(os.good(), "cannot open '" << path << "' for writing");
    api::JsonSink sink(os, merged.bench, merged.threads);
    for (const std::string& row : merged.rows) sink.write_json(row);
    sink.close();
    os << '\n';  // the file form's trailing newline, for byte-parity
    std::cerr << "wrote " << path << " (" << merged.rows.size()
              << " rows from " << args.positionals.size() << " partials)\n";
  }
  return 0;
}

// ---------------------------------------------------------------------
// version

int cmd_version(const Args&) {
  // Perf artifacts from heterogeneous runners are only comparable when
  // the build flavor is on record; this prints it in a stable
  // `key: value` layout scripts can grep.
  std::cout << "osp_cli version\n";
#if defined(__VERSION__)
  std::cout << "build.compiler: " << __VERSION__ << "\n";
#endif
  std::cout << "build.std: " << __cplusplus << "\n";
#if defined(__x86_64__)
  std::cout << "build.arch: x86_64\n";
#elif defined(__aarch64__)
  std::cout << "build.arch: aarch64\n";
#else
  std::cout << "build.arch: other\n";
#endif
#if defined(NDEBUG)
  std::cout << "build.assertions: off\n";
#else
  std::cout << "build.assertions: on\n";
#endif
#if defined(__SANITIZE_ADDRESS__)
  std::cout << "build.sanitizers: address\n";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  std::cout << "build.sanitizers: address\n";
#else
  std::cout << "build.sanitizers: none\n";
#endif
#else
  std::cout << "build.sanitizers: none\n";
#endif
  return 0;
}

int usage() {
  std::cerr <<
      R"(osp_cli — online set packing toolbox
  osp_cli list  [--policies] [--scenarios] [--rankers] [--markdown]
  osp_cli gen   <scenario> [--out FILE] [--seed S] [--m M] [--n N] [--k K]
                [--sigma SIGMA] [--ell ELL] [--t T] [--weights W] ...
  osp_cli stats <file|->
  osp_cli run   [file|-] [--alg SPEC] [--seed S] [--trials T]
  osp_cli solve <file|->
  osp_cli bench [--scenario NAMES] [--config FILE] [--alg SPECS]
                [--ranker NAMES] [--trials T] [--seed S] [--json NAME]
                [--sustained [--workers W]]
                [--dry-run] [--shard i/N --out PART]
  osp_cli merge PART... (--json NAME | --out FILE)
  osp_cli version

stats/run/solve read the instance from a file, from '-', or from a pipe
on stdin (so `osp_cli gen … | osp_cli run …` works); NAMES/SPECS are
comma-separated.  Scenarios with sweep axes expand into one bench column
per cell.  `bench --config FILE` loads a key=value scenario file
(scenario = <base>, field overrides, sweep.<key> = values — see
docs/EXPERIMENTS.md); `bench --ranker` sweeps buffered-router rankers
over a video scenario; `bench --sustained` runs the multi-link serving
runtime (sustained/* scenarios, --workers picks the worker count, every
run is cross-checked against the serial reference); `list --markdown`
emits docs/CATALOG.md.
`bench --dry-run` prints the expanded cell grid without running;
`bench --shard i/N --out PART` runs shard i's slice of the cells into a
partial-result file, and `merge` fuses partials into the bit-identical
BENCH artifact (see docs/EXPERIMENTS.md, "Sharding a sweep").

)" << "policies:\n"
            << osp::api::policies().render_catalog() << "\nscenarios:\n"
            << osp::api::scenarios().render_catalog() << "\nrankers:\n"
            << osp::api::rankers().render_catalog()
            << "\nweights: unit uniform zipf exp\n";
  return 2;
}

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    Args args = parse(argc, argv);
    // Only merge takes several positionals; everywhere else a second one
    // is a typo (e.g. a flag value that lost its --flag).
    if (args.command != "merge")
      OSP_REQUIRE_MSG(args.positionals.size() <= 1,
                      "unexpected extra argument " << args.positionals[1]);
    if (args.command == "list") return cmd_list(args);
    if (args.command == "gen") return cmd_gen(args);
    if (args.command == "stats") return cmd_stats(args);
    if (args.command == "run") return cmd_run(args);
    if (args.command == "solve") return cmd_solve(args);
    if (args.command == "bench") return cmd_bench(args);
    if (args.command == "merge") return cmd_merge(args);
    if (args.command == "version") return cmd_version(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace
}  // namespace osp::cli

int main(int argc, char** argv) { return osp::cli::main(argc, argv); }
