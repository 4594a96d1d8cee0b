#include "api/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>

#include "api/adversarial.hpp"
#include "gen/schedule.hpp"
#include "util/parse.hpp"
#include "util/require.hpp"

namespace osp::api {

namespace {

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Ceiling on cells a single lo..hi[..step] range may expand to: a typo'd
/// bound must fail as a RequireError, not materialize billions of cells.
constexpr std::size_t kMaxRangeCells = 10000;

/// Ceiling on a spec's whole expanded grid — the cartesian product of
/// several in-bounds axes must not defeat the per-range cap above.
constexpr std::size_t kMaxGridCells = 100000;

constexpr std::size_t kCapacityMax = std::numeric_limits<Capacity>::max();

/// Appends one value-list element to `out`: either a literal value or an
/// inclusive lo..hi[..step] integer range.
void append_sweep_element(const std::string& key, const std::string& element,
                          std::vector<std::vector<std::string>>& out) {
  const std::size_t dots = element.find("..");
  if (dots == std::string::npos) {
    out.push_back({element});
    return;
  }
  const std::string what = "sweep range for '" + key + "'";
  const std::string rest = element.substr(dots + 2);
  const std::size_t dots2 = rest.find("..");
  const std::size_t lo = parse_size(what, element.substr(0, dots));
  const std::size_t hi = parse_size(
      what, dots2 == std::string::npos ? rest : rest.substr(0, dots2));
  const std::size_t step =
      dots2 == std::string::npos ? 1 : parse_size(what, rest.substr(dots2 + 2));
  OSP_REQUIRE_MSG(hi >= lo, what << " needs lo <= hi, got '" << element << "'");
  OSP_REQUIRE_MSG(step >= 1, what << " needs a step >= 1, got '" << element
                                  << "'");
  // Count-based loop: immune to v += step wrapping past hi, and bounded
  // so a typo'd range errors instead of OOMing.
  const std::size_t count = (hi - lo) / step + 1;
  OSP_REQUIRE_MSG(count <= kMaxRangeCells,
                  what << " would expand to " << count << " cells (max "
                       << kMaxRangeCells << "); got '" << element << "'");
  for (std::size_t i = 0; i < count; ++i)
    out.push_back({std::to_string(lo + i * step)});
}

}  // namespace

std::size_t parse_size(const std::string& what, const std::string& text,
                       std::size_t max) {
  const std::optional<std::uint64_t> value = parse_unsigned(text, max);
  if (value) return static_cast<std::size_t>(*value);
  if (max == std::numeric_limits<std::size_t>::max())
    throw RequireError(what + " expects a non-negative integer, got '" +
                       text + "'");
  throw RequireError(what + " expects an integer in [0, " +
                     std::to_string(max) + "], got '" + text + "'");
}

WeightModel weight_model_from(const std::string& name) {
  if (name == "unit") return WeightModel::unit();
  if (name == "uniform") return WeightModel::uniform(1, 10);
  if (name == "zipf") return WeightModel::zipf(1.2);
  if (name == "exp") return WeightModel::exponential(1.0);
  OSP_REQUIRE_MSG(false, "unknown weight model '" << name
                             << "' (known: unit uniform zipf exp)");
  return {};
}

SweepAxis sweep_axis(const std::string& key, const std::string& values) {
  SweepAxis axis;
  axis.keys = {key};
  std::istringstream is(values);
  std::string element;
  while (std::getline(is, element, ',')) {
    element = trim(element);
    OSP_REQUIRE_MSG(!element.empty(), "sweep axis for '"
                                          << key
                                          << "' has an empty value in '"
                                          << values << "'");
    append_sweep_element(key, element, axis.values);
  }
  OSP_REQUIRE_MSG(!axis.values.empty(),
                  "sweep axis for '" << key << "' has no values");
  return axis;
}

SweepAxis sweep_axis(std::vector<std::string> keys,
                     std::vector<std::vector<std::string>> cells,
                     std::vector<std::string> labels) {
  SweepAxis axis;
  axis.keys = std::move(keys);
  axis.values = std::move(cells);
  axis.labels = std::move(labels);
  return axis;
}

std::vector<ScenarioSpec> expand(const ScenarioSpec& spec) {
  // Validate every axis up front so a malformed declaration fails before
  // any cell is emitted.
  std::vector<std::string> seen_keys;
  for (const SweepAxis& axis : spec.sweep) {
    for (const std::string& key : axis.keys) {
      // A key swept twice would silently square the grid (and the later
      // axis would clobber the earlier one's values inside each cell).
      OSP_REQUIRE_MSG(std::find(seen_keys.begin(), seen_keys.end(), key) ==
                          seen_keys.end(),
                      "scenario '" << spec.name << "' sweeps '" << key
                                   << "' in more than one axis");
      seen_keys.push_back(key);
    }
  }
  for (const SweepAxis& axis : spec.sweep) {
    OSP_REQUIRE_MSG(!axis.keys.empty(), "scenario '" << spec.name
                                                     << "' has a sweep axis "
                                                        "without keys");
    OSP_REQUIRE_MSG(axis.cells() >= 1, "scenario '"
                                           << spec.name
                                           << "' has a sweep axis over '"
                                           << axis.keys.front()
                                           << "' with no cells");
    for (const std::vector<std::string>& cell : axis.values)
      OSP_REQUIRE_MSG(cell.size() == axis.keys.size(),
                      "scenario '" << spec.name << "' sweep axis over '"
                                   << axis.keys.front() << "' zips "
                                   << axis.keys.size()
                                   << " keys but a cell carries "
                                   << cell.size() << " values");
    OSP_REQUIRE_MSG(axis.labels.empty() ||
                        axis.labels.size() == axis.cells(),
                    "scenario '" << spec.name << "' sweep axis over '"
                                 << axis.keys.front() << "' has "
                                 << axis.labels.size() << " labels for "
                                 << axis.cells() << " cells");
  }

  std::size_t total = 1;
  for (const SweepAxis& axis : spec.sweep) {
    // Multiply toward the cap without overflowing.
    OSP_REQUIRE_MSG(axis.cells() <= kMaxGridCells / total,
                    "scenario '" << spec.name
                                 << "' would expand to more than "
                                 << kMaxGridCells << " cells");
    total *= axis.cells();
  }

  std::vector<ScenarioSpec> out;
  ScenarioSpec base = spec;
  base.sweep.clear();
  out.push_back(std::move(base));
  // Cartesian product: each axis multiplies the grid built so far, so the
  // first-declared axis varies slowest (outermost loop order).
  for (const SweepAxis& axis : spec.sweep) {
    std::vector<ScenarioSpec> next;
    next.reserve(out.size() * axis.cells());
    for (const ScenarioSpec& partial : out) {
      for (std::size_t c = 0; c < axis.cells(); ++c) {
        ScenarioSpec cell = partial;
        for (std::size_t i = 0; i < axis.keys.size(); ++i)
          cell.set(axis.keys[i], axis.values[c][i]);
        if (!axis.labels.empty()) {
          cell.label = axis.labels[c];
        } else {
          std::string label = cell.display_label();
          for (std::size_t i = 0; i < axis.keys.size(); ++i)
            label += " " + axis.keys[i] + "=" + axis.values[c][i];
          cell.label = label;
        }
        next.push_back(std::move(cell));
      }
    }
    out = std::move(next);
  }
  return out;
}

ScenarioSpec ScenarioSpec::from_stream(std::istream& in,
                                       const std::string& origin) {
  ScenarioSpec spec;
  bool have_base = false;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    OSP_REQUIRE_MSG(eq != std::string::npos,
                    origin << ":" << lineno << ": expected 'key = value', got '"
                           << line << "'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    OSP_REQUIRE_MSG(!key.empty(),
                    origin << ":" << lineno << ": missing key before '='");

    // Prefix every downstream parse error (unknown key, bad value, bad
    // sweep range) with the config location so a shared file fails loudly
    // AND findably.
    try {
      if (key == "scenario") {
        OSP_REQUIRE_MSG(!have_base,
                        "'scenario' must appear exactly once, first");
        spec = scenarios().at(value);
        have_base = true;
        continue;
      }
      OSP_REQUIRE_MSG(have_base,
                      "the first directive must be 'scenario = <name>' "
                      "naming the registry entry to start from");
      if (key == "name") {
        spec.name = value;
      } else if (key == "label") {
        spec.label = value;
      } else if (key == "trials") {
        const std::size_t trials = parse_size("config key trials", value);
        OSP_REQUIRE_MSG(trials >= 1 && trials <= 1000000000,
                        "config key trials must be in [1, 1e9], got "
                            << trials);
        spec.default_trials = static_cast<int>(trials);
      } else if (key.rfind("sweep.", 0) == 0) {
        const std::string axis_key = key.substr(6);
        OSP_REQUIRE_MSG(!axis_key.empty(),
                        "sweep directive needs a key: 'sweep.<key> = …'");
        for (const SweepAxis& existing : spec.sweep)
          for (const std::string& k : existing.keys)
            OSP_REQUIRE_MSG(k != axis_key,
                            "'" << axis_key
                                << "' is already swept (by this config or "
                                   "the base scenario)");
        SweepAxis axis = sweep_axis(axis_key, value);
        // Probe every value now so a typo'd key OR value fails on its
        // own line, not at expand() time far from the file.
        ScenarioSpec probe = spec;
        for (const std::vector<std::string>& cell : axis.values)
          probe.set(axis_key, cell.front());
        spec.vary(std::move(axis));
      } else {
        // Mirror the CLI-flag rule: a plain override of a key the base
        // scenario sweeps would be silently clobbered by the axis values
        // at expand() time.
        for (const SweepAxis& existing : spec.sweep)
          for (const std::string& k : existing.keys)
            OSP_REQUIRE_MSG(k != key,
                            "'" << key
                                << "' is swept by the base scenario; set "
                                   "sweep."
                                << key << " instead");
        spec.set(key, value);
      }
    } catch (const RequireError& e) {
      // Re-thrown with the config location in front of the message.
      throw RequireError(origin + ":" + std::to_string(lineno) + ": " +
                         e.what());
    }
  }
  OSP_REQUIRE_MSG(have_base, origin
                                 << ": empty config — the first directive "
                                    "must be 'scenario = <name>'");
  return spec;
}

ScenarioSpec ScenarioSpec::from_file(const std::string& path) {
  std::ifstream in(path);
  OSP_REQUIRE_MSG(in.good(),
                  "cannot open scenario config '" << path << "'");
  return from_stream(in, path);
}

ScenarioSpec& ScenarioSpec::set(const std::string& key,
                                const std::string& value) {
  const std::string what = "scenario parameter --" + key;
  if (key == "m") m = parse_size(what, value);
  else if (key == "n") n = parse_size(what, value);
  else if (key == "k") k = parse_size(what, value);
  else if (key == "sigma") sigma = parse_size(what, value);
  else if (key == "cap-max") cap_max = parse_size(what, value, kCapacityMax);
  else if (key == "ell") ell = parse_size(what, value);
  else if (key == "t") t = parse_size(what, value);
  else if (key == "streams") streams = parse_size(what, value);
  else if (key == "frames") frames = parse_size(what, value);
  else if (key == "packets") packets = parse_size(what, value);
  else if (key == "switches") switches = parse_size(what, value);
  else if (key == "capacity")
    capacity = static_cast<Capacity>(parse_size(what, value, kCapacityMax));
  else if (key == "service-rate")
    service_rate =
        static_cast<Capacity>(parse_size(what, value, kCapacityMax));
  else if (key == "buffer") buffer = parse_size(what, value);
  else if (key == "links") links = parse_size(what, value);
  else if (key == "window") window = parse_size(what, value);
  else if (key == "weights") weights = weight_model_from(value);
  else
    OSP_REQUIRE_MSG(false,
                    "unknown scenario parameter '"
                        << key
                        << "' (known: m n k sigma cap-max ell t streams "
                           "frames packets switches capacity service-rate "
                           "buffer links window weights)");
  return *this;
}

Instance build_instance(const ScenarioSpec& spec, Rng& rng) {
  switch (spec.family) {
    case ScenarioFamily::kRandom:
      return random_instance(spec.m, spec.n, spec.k, spec.weights, rng);
    case ScenarioFamily::kRandomCapacity:
      return random_capacity_instance(spec.m, spec.n, spec.k, spec.cap_max,
                                      spec.weights, rng);
    case ScenarioFamily::kRegular:
      return regular_instance(spec.m, spec.k, spec.sigma, spec.weights, rng);
    case ScenarioFamily::kFixedLoad:
      return fixed_load_instance(spec.m, spec.n, spec.sigma, spec.weights,
                                 rng);
    case ScenarioFamily::kVideo:
      return build_video(spec, rng).schedule.to_instance(spec.capacity);
    case ScenarioFamily::kMultihop:
      return build_multihop(spec, rng).instance;
    case ScenarioFamily::kWeakLb:
    case ScenarioFamily::kLemma9:
    case ScenarioFamily::kTheorem3:
      return build_adversarial_cell(spec, rng).instance;
  }
  OSP_REQUIRE_MSG(false, "scenario '" << spec.name << "' has an unknown family");
  return InstanceBuilder{}.build();
}

bool affects_instance(const std::string& key, ScenarioFamily family) {
  auto any_of = [&key](std::initializer_list<const char*> keys) {
    for (const char* k : keys)
      if (key == k) return true;
    return false;
  };
  switch (family) {
    case ScenarioFamily::kRandom:
      return any_of({"m", "n", "k", "weights"});
    case ScenarioFamily::kRandomCapacity:
      return any_of({"m", "n", "k", "cap-max", "weights"});
    case ScenarioFamily::kRegular:
      return any_of({"m", "k", "sigma", "weights"});
    case ScenarioFamily::kFixedLoad:
      return any_of({"m", "n", "sigma", "weights"});
    case ScenarioFamily::kVideo:
      return any_of({"streams", "frames", "capacity"});
    case ScenarioFamily::kMultihop:
      return any_of({"packets", "switches"});
    case ScenarioFamily::kWeakLb:
      return any_of({"t"});
    case ScenarioFamily::kLemma9:
      return any_of({"ell"});
    case ScenarioFamily::kTheorem3:
      return any_of({"sigma", "k"});
  }
  return true;  // unknown family: stay quiet rather than mis-warn
}

VideoWorkload build_video(const ScenarioSpec& spec, Rng& rng) {
  OSP_REQUIRE_MSG(spec.family == ScenarioFamily::kVideo,
                  "scenario '" << spec.name << "' is not a video workload");
  VideoParams params;
  params.num_streams = spec.streams;
  params.frames_per_stream = spec.frames;
  return make_video_workload(params, rng);
}

MultiHopWorkload build_multihop(const ScenarioSpec& spec, Rng& rng) {
  OSP_REQUIRE_MSG(spec.family == ScenarioFamily::kMultihop,
                  "scenario '" << spec.name
                               << "' is not a multihop workload");
  MultiHopParams params;
  params.num_packets = spec.packets;
  params.num_switches = spec.switches;
  return make_multihop_workload(params, rng);
}

namespace {

/// "sigma=2,3,4" for a single-key axis, "m,n,k=64/128/4;1024/2048/4;…"
/// for a zipped one — the catalog table's sweep column.
std::string axis_summary(const SweepAxis& axis) {
  std::ostringstream os;
  for (std::size_t i = 0; i < axis.keys.size(); ++i)
    os << (i ? "," : "") << axis.keys[i];
  os << '=';
  for (std::size_t c = 0; c < axis.cells(); ++c) {
    os << (c ? (axis.keys.size() > 1 ? ";" : ",") : "");
    for (std::size_t i = 0; i < axis.values[c].size(); ++i)
      os << (i ? "/" : "") << axis.values[c][i];
  }
  return os.str();
}

/// The catalog table's sweep column: one summary per axis.
std::string sweep_cell(const ScenarioSpec& s) {
  std::vector<std::string> axes;
  for (const SweepAxis& axis : s.sweep) axes.push_back(axis_summary(axis));
  return detail::code_list(axes, " × ");
}

std::vector<ScenarioSpec> build_catalog() {
  std::vector<ScenarioSpec> list;

  {  // The seed CLI's generator families, defaults preserved.
    ScenarioSpec s;
    s.name = "random";
    s.description = "m sets of size k over n slots (Theorem 1/5 family)";
    s.family = ScenarioFamily::kRandom;
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "regular";
    s.description = "bi-regular: size k and load sigma (Corollary 7 family)";
    s.family = ScenarioFamily::kRegular;
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "fixedload";
    s.description = "uniform load sigma, varying sizes (Theorem 6 family)";
    s.family = ScenarioFamily::kFixedLoad;
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "capacity";
    s.description = "random layout, capacities U[1, cap-max] (Theorem 4)";
    s.family = ScenarioFamily::kRandomCapacity;
    s.m = 22;
    s.n = 20;
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "video";
    s.description = "GOP video streams through a bottleneck link";
    s.family = ScenarioFamily::kVideo;
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "multihop";
    s.description = "packets crossing a switch pipeline ((time, hop) slots)";
    s.family = ScenarioFamily::kMultihop;
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "weaklb";
    s.description = "Section 4.2 warm-up gadget (t^2 sets)";
    s.family = ScenarioFamily::kWeakLb;
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "lemma9";
    s.description = "Figure 1 / Lemma 9 lower-bound distribution";
    s.family = ScenarioFamily::kLemma9;
    list.push_back(s);
  }

  // ---------------------------------------------------------------
  // Declarative sweeps: the per-bench sweep loops as data.  The benches
  // iterate expand(scenarios().at(...)) instead of hand-rolled value
  // lists, so the swept values below ARE the committed BENCH_*.json row
  // keys — change them and the perf trajectory re-keys.

  // The engine-throughput ladder (bench_perf's workload table), one
  // zipped (m, n, k) axis.  The cell labels are the BENCH_engine.json
  // row keys and must stay stable across PRs — the perf trajectory is
  // keyed on them.  The last cell is the largest workload the
  // acceptance gates are measured on: sustained ~sigma=16 congestion
  // over a quarter-million arrivals.
  {
    ScenarioSpec s;
    s.name = "engine/ladder";
    s.description =
        "engine-throughput ladder: 6 random shapes up to m=8192 n=262144";
    s.family = ScenarioFamily::kRandom;
    s.m = 64;
    s.n = 128;
    s.k = 4;
    s.weights = WeightModel::unit();
    s.vary(sweep_axis({"m", "n", "k"},
                      {{"64", "128", "4"},
                       {"1024", "2048", "4"},
                       {"4096", "8192", "4"},
                       {"1024", "32768", "64"},
                       {"4096", "131072", "64"},
                       {"8192", "262144", "512"}},
                      {"legacy/64", "legacy/1024", "legacy/4096",
                       "router/32k", "router/128k", "overload/256k"}));
    list.push_back(s);
  }

  // bench_uniform's three sweeps (E3: Theorems 5/6, Corollary 7).
  {
    ScenarioSpec s;
    s.name = "uniform/corollary7";
    s.description =
        "bi-regular sweep: k=3 fixed, sigma rising, n held at 24";
    s.family = ScenarioFamily::kRegular;
    s.m = 16;
    s.k = 3;
    s.sigma = 2;
    s.default_trials = 600;
    // m = 8·sigma keeps n = mk/sigma = 24 constant across the axis.
    s.vary(sweep_axis({"m", "sigma"}, {{"16", "2"},
                                       {"24", "3"},
                                       {"32", "4"},
                                       {"48", "6"},
                                       {"64", "8"},
                                       {"96", "12"}}));
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "uniform/theorem5";
    s.description = "uniform size k rising, loads vary (random instances)";
    s.family = ScenarioFamily::kRandom;
    s.m = 24;
    s.n = 18;
    s.k = 2;
    s.default_trials = 600;
    s.vary(sweep_axis("k", "2,3,4,5"));
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "uniform/theorem6";
    s.description = "uniform load sigma rising, sizes vary";
    s.family = ScenarioFamily::kFixedLoad;
    s.m = 20;
    s.n = 30;
    s.sigma = 2;
    s.default_trials = 600;
    s.vary(sweep_axis("sigma", "2,3,4,6,8"));
    list.push_back(s);
  }

  // bench_capacity's two sweeps (E6: Theorem 4).
  {
    ScenarioSpec s;
    s.name = "capacity/random";
    s.description = "capacities U[1, cap-max] for growing cap-max";
    s.family = ScenarioFamily::kRandomCapacity;
    s.m = 22;
    s.n = 20;
    s.k = 3;
    s.cap_max = 1;
    s.default_trials = 600;
    s.vary(sweep_axis("cap-max", "1,2,3,4,6,8"));
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "capacity/uniform";
    s.description = "fixed random layout, uniform capacity b rising";
    s.family = ScenarioFamily::kRandom;
    s.m = 24;
    s.n = 18;
    s.k = 3;
    s.default_trials = 600;
    s.vary(sweep_axis("capacity", "1..4"));
    list.push_back(s);
  }

  // bench_router's sweeps (E7 sections (a), (b), (d)/(e)).
  {
    ScenarioSpec s;
    s.name = "router/unbuffered";
    s.description = "GOP video through an unbuffered link, streams rising";
    s.family = ScenarioFamily::kVideo;
    s.streams = 4;
    s.frames = 24;
    s.default_trials = 25;
    s.vary(sweep_axis("streams", "4,8,12"));
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "router/buffered";
    s.description = "10 video streams, buffer ladder 0..64 (open problem 2)";
    s.family = ScenarioFamily::kVideo;
    s.streams = 10;
    s.frames = 24;
    s.service_rate = 1;
    s.default_trials = 25;
    s.vary(sweep_axis("buffer", "0,2,4,8,16,32,64"));
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "router/buffered-smoke";
    s.description = "toy-size buffered ladder for sanitized smoke runs";
    s.family = ScenarioFamily::kVideo;
    s.streams = 10;
    s.frames = 24;
    s.service_rate = 1;
    s.default_trials = 4;
    s.vary(sweep_axis("buffer", "0,4,16"));
    list.push_back(s);
  }
  {  // bench_router's big buffered scenario (sections (d)/(e)).
    ScenarioSpec s;
    s.name = "router/overload";
    s.description =
        "64 video streams, ~1M packets, link at ~1/3 of offered load";
    s.family = ScenarioFamily::kVideo;
    s.streams = 64;
    s.frames = 6720;
    s.service_rate = 32;
    s.buffer = 256;
    s.default_trials = 3;
    s.vary(sweep_axis("buffer", "256,1024,4096"));
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "router/overload-smoke";
    s.description = "toy-size overload scenario for sanitized smoke runs";
    s.family = ScenarioFamily::kVideo;
    s.streams = 8;
    s.frames = 60;
    s.service_rate = 4;
    s.buffer = 16;
    s.default_trials = 2;
    s.vary(sweep_axis("buffer", "16,64"));
    list.push_back(s);
  }

  // The sustained serving runtime's workloads (bench_router section (f)
  // and `osp_cli bench --sustained`): one long deterministic run each,
  // not trial means — default_trials = 1 picks the seed stream.
  {
    ScenarioSpec s;
    s.name = "sustained/steady";
    s.description =
        "2048 streams over 8 links at ~1/3 offered load, ~4.8M packets";
    s.family = ScenarioFamily::kVideo;
    s.streams = 2048;
    s.frames = 900;
    s.links = 8;
    s.service_rate = 64;
    s.buffer = 1024;
    s.window = 256;
    s.default_trials = 1;
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "sustained/ramp";
    s.description =
        "saturation ramp: 1024 streams over 4 links, service-rate rising "
        "through the knee";
    s.family = ScenarioFamily::kVideo;
    s.streams = 1024;
    s.frames = 300;
    s.links = 4;
    s.service_rate = 16;
    s.buffer = 512;
    s.window = 128;
    s.default_trials = 1;
    s.vary(sweep_axis("service-rate", "16,32,64,128,256"));
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "sustained/steady-smoke";
    s.description = "toy-size sustained run for sanitized smoke runs";
    s.family = ScenarioFamily::kVideo;
    s.streams = 32;
    s.frames = 40;
    s.links = 4;
    s.service_rate = 4;
    s.buffer = 32;
    s.window = 16;
    s.default_trials = 1;
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "sustained/ramp-smoke";
    s.description = "toy-size saturation ramp for sanitized smoke runs";
    s.family = ScenarioFamily::kVideo;
    s.streams = 16;
    s.frames = 30;
    s.links = 2;
    s.service_rate = 2;
    s.buffer = 16;
    s.window = 16;
    s.default_trials = 1;
    s.vary(sweep_axis("service-rate", "2,8"));
    list.push_back(s);
  }

  // ----------------------------------------------------------------
  // Adversarial worst-case families (ROADMAP item 5): the theory half's
  // gadget constructions as first-class grid scenarios.  bench_adversarial
  // sweeps these to produce BENCH_adversarial.json (the competitive-ratio
  // dashboard, gated in scripts/check_bench_json.py) and prints its
  // console tables from the same cells — the swept values below ARE the
  // dashboard's row keys.
  {
    ScenarioSpec s;
    s.name = "adversarial/theorem3";
    s.description =
        "Theorem 3 adaptive adversary (greedy-first transcript), "
        "(sigma, k) grid";
    s.family = ScenarioFamily::kTheorem3;
    s.sigma = 2;
    s.k = 2;
    s.default_trials = 300;  // randPr's trials on each transcript
    s.vary(sweep_axis("sigma", "2,3,4"));
    s.vary(sweep_axis("k", "2,3,4"));
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "adversarial/theorem3-smoke";
    s.description = "two small Theorem 3 cells for CI smoke + shard probes";
    s.family = ScenarioFamily::kTheorem3;
    s.sigma = 2;
    s.k = 2;
    s.default_trials = 50;
    s.vary(sweep_axis({"sigma", "k"}, {{"2", "2"}, {"3", "2"}}));
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "adversarial/weak-lb";
    s.description =
        "Section 4.2 warm-up gadget, t rising (ratio Omega(t/log t))";
    s.family = ScenarioFamily::kWeakLb;
    s.t = 4;
    s.default_trials = 40;  // gadget draws per t
    s.vary(sweep_axis("t", "4,6,8,12,16,24"));
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "adversarial/weak-lb-smoke";
    s.description = "toy-size warm-up gadget cells for CI smoke runs";
    s.family = ScenarioFamily::kWeakLb;
    s.t = 4;
    s.default_trials = 8;
    s.vary(sweep_axis("t", "4,6"));
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "adversarial/lemma9";
    s.description =
        "Lemma 9 / Figure 1 distribution, prime-power ell rising";
    s.family = ScenarioFamily::kLemma9;
    s.ell = 2;
    s.default_trials = 12;  // gadget draws per ell
    s.vary(sweep_axis("ell", "2,3,4,5"));
    list.push_back(s);
  }
  {
    ScenarioSpec s;
    s.name = "adversarial/lemma9-smoke";
    s.description = "smallest Lemma 9 cells for CI smoke runs";
    s.family = ScenarioFamily::kLemma9;
    s.ell = 2;
    s.default_trials = 4;
    s.vary(sweep_axis("ell", "2,3"));
    list.push_back(s);
  }

  // bench_theorem1's eight random shapes (E2), one zipped (m, n, k) axis;
  // the bench runs the expansion twice (unweighted, then weights U[1,8]).
  {
    ScenarioSpec s;
    s.name = "random/theorem1";
    s.description =
        "Theorem 1 ladder: 8 random shapes, k then density rising";
    s.family = ScenarioFamily::kRandom;
    s.m = 12;
    s.n = 30;
    s.k = 2;
    s.default_trials = 600;
    s.vary(sweep_axis({"m", "n", "k"},
                      {{"12", "30", "2"},
                       {"16", "30", "3"},
                       {"20", "30", "4"},
                       {"24", "30", "5"},
                       {"20", "16", "3"},
                       {"24", "12", "3"},
                       {"28", "10", "3"},
                       {"32", "8", "3"}}));
    list.push_back(s);
  }

  // bench_ablation's (a,b,c) instance families as a weights axis.
  {
    ScenarioSpec s;
    s.name = "ablation/weights";
    s.description =
        "randPr priority-rule ablation shapes: m=24 k=3, weight model "
        "varying";
    s.family = ScenarioFamily::kRandom;
    s.m = 24;
    s.n = 20;
    s.k = 3;
    s.default_trials = 800;
    s.vary(sweep_axis("weights", "unit,uniform,zipf"));
    list.push_back(s);
  }

  return list;
}

}  // namespace

const Registry<ScenarioSpec>& scenarios() {
  static const Registry<ScenarioSpec> catalog(
      {"scenario", "scenarios", {"name", "description", "sweep"}, sweep_cell},
      build_catalog());
  return catalog;
}

std::vector<ScenarioSpec> engine_shapes() {
  return expand(scenarios().at("engine/ladder"));
}

}  // namespace osp::api
