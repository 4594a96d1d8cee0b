// ScenarioSpec and the scenario catalog — declarative workload descriptions.
//
// A scenario names a generator family plus its shape parameters (sizes,
// loads, weights, traffic knobs).  The catalog, api::scenarios(), is the
// curated list that previously lived scattered across bench_common.hpp's
// workload table, bench_router's sweep configs, and osp_cli's `gen`
// families, served by the same Registry as the policies and rankers:
//
//   "random", "regular", "fixedload", "capacity"   set-system families
//   "video", "multihop"                            traffic workloads
//   "weaklb", "lemma9"                             lower-bound gadgets
//   "adversarial/…"                                worst-case families for
//                                                  the competitive-ratio
//                                                  dashboard (bench_adversarial)
//   "engine/…"                                     the engine-throughput
//                                                  ladder (bench_perf)
//   "router/overload[-smoke]"                      bench_router's big
//                                                  buffered scenario
//
// Specs are value types: copy one out of the catalog, override fields
// (directly or via set(key, value) from CLI-style strings), and compile it
// with build_instance() / build_video() / build_multihop().
//
// A spec can also carry SweepAxes — swept parameter dimensions declared as
// data.  expand() turns one swept spec into the concrete grid of specs the
// benches and `osp_cli bench` iterate, so a whole bench sweep is one
// declarative object instead of a recompiled loop.  Specs (including their
// axes) load from key=value config files via from_file(), making scenarios
// and sweeps shareable without recompiling.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "core/instance.hpp"
#include "gen/multihop.hpp"
#include "gen/random_instances.hpp"
#include "gen/video.hpp"
#include "util/rng.hpp"

namespace osp::api {

/// Generator family a scenario compiles through.
enum class ScenarioFamily {
  kRandom,          // random_instance(m, n, k)
  kRandomCapacity,  // random_capacity_instance(m, n, k, cap_max)
  kRegular,         // regular_instance(m, k, sigma)
  kFixedLoad,       // fixed_load_instance(m, n, sigma)
  kVideo,           // make_video_workload(streams, frames)
  kMultihop,        // make_multihop_workload(packets, switches)
  kWeakLb,          // build_weak_lb_instance(t)
  kLemma9,          // build_lemma9_instance(ell)
  kTheorem3,        // run_theorem3_adversary(sigma, k) vs greedy-first
};

/// One swept dimension of a scenario.  An axis varies one or more spec
/// keys together (zipped): cell c applies set(keys[i], values[c][i]) for
/// every key i.  A spec with several axes expands as their cartesian
/// product, first axis outermost (see expand()).
struct SweepAxis {
  std::vector<std::string> keys;
  std::vector<std::vector<std::string>> values;  // [cell][key index]
  /// Optional display label per cell; when set, the expanded spec's label
  /// becomes labels[cell] (the engine ladder's BENCH row keys work this
  /// way).  Empty, or one entry per cell.
  std::vector<std::string> labels;

  std::size_t cells() const { return values.size(); }
};

/// Single-key axis from a value-list string: comma-separated elements,
/// each a literal value or an inclusive lo..hi[..step] integer range —
/// "2,3,4", "2..12", "2..12..2", and mixes like "1,4..6" all work.
SweepAxis sweep_axis(const std::string& key, const std::string& values);

/// Zipped multi-key axis: cell c assigns cells[c][i] to keys[i].  `labels`
/// (optional) names the expanded specs, one entry per cell.
SweepAxis sweep_axis(std::vector<std::string> keys,
                     std::vector<std::vector<std::string>> cells,
                     std::vector<std::string> labels = {});

/// A declarative workload description.  Field meaning depends on family;
/// unused fields are ignored by build_*().
struct ScenarioSpec {
  std::string name;         // catalog key, e.g. "engine/overload-256k"
  std::string description;  // one line for `osp_cli list`
  ScenarioFamily family = ScenarioFamily::kRandom;

  // Set-system shape.
  std::size_t m = 24;        // sets
  std::size_t n = 30;        // element slots
  std::size_t k = 3;         // set size
  std::size_t sigma = 4;     // element load
  std::size_t cap_max = 3;   // kRandomCapacity: capacities U[1, cap_max]
  WeightModel weights = WeightModel::unit();

  // Gadget sizes.
  std::size_t ell = 3;  // kLemma9
  std::size_t t = 8;    // kWeakLb

  // Traffic shape.
  std::size_t streams = 8;       // kVideo: concurrent senders
  std::size_t frames = 24;       // kVideo: frames per sender
  std::size_t packets = 80;      // kMultihop: packets injected
  std::size_t switches = 6;      // kMultihop: path length
  Capacity capacity = 1;         // kVideo→instance link capacity
  Capacity service_rate = 1;     // router benches: packets served per slot
  std::size_t buffer = 0;        // router benches: packets that can wait
  std::size_t links = 1;         // sustained runtime: parallel links
  std::size_t window = 256;      // sustained runtime: slots per goodput window

  // Bench plumbing.
  std::string label;         // table/JSON label; name when empty
  int default_trials = 100;  // suggested trial count for `osp_cli bench`

  /// Swept dimensions; empty for a plain single-cell scenario.
  std::vector<SweepAxis> sweep;

  /// The label benches key their rows on.
  const std::string& display_label() const {
    return label.empty() ? name : label;
  }

  /// Applies a CLI-style string override ("m", "sigma", "weights", …).
  /// Throws RequireError naming the key on unknown keys or bad values.
  ScenarioSpec& set(const std::string& key, const std::string& value);

  /// Appends a sweep axis (builder style for catalog entries).
  ScenarioSpec& vary(SweepAxis axis) {
    sweep.push_back(std::move(axis));
    return *this;
  }

  /// Parses a key=value scenario config ('#' comments, blank lines
  /// ignored).  The first directive must be `scenario = <base>` naming the
  /// catalog entry to copy; later lines override fields through set()
  /// (strict unknown-key errors, prefixed with origin:line), with the
  /// extra keys `name`, `label`, `trials`, and `sweep.<key> = <values>`
  /// (one single-key axis per line, sweep_axis() value syntax).
  static ScenarioSpec from_stream(std::istream& in, const std::string& origin);
  static ScenarioSpec from_file(const std::string& path);
};

/// Expands a spec's sweep axes into the concrete grid of specs, cartesian
/// product in declaration order (first axis outermost).  Every returned
/// spec has its axes cleared, fields overridden through set(), and a label
/// naming the cell (axis labels when declared, appended "key=value" pairs
/// otherwise).  A spec without axes expands to itself, so callers can
/// iterate unconditionally.  Throws RequireError on malformed axes
/// (unknown key, zip length mismatch, empty axis).
std::vector<ScenarioSpec> expand(const ScenarioSpec& spec);

/// Compiles a scenario into a set-packing Instance (every family can;
/// traffic families convert through their schedule, like `osp_cli gen`).
Instance build_instance(const ScenarioSpec& spec, Rng& rng);

/// True when `key` influences build_instance() for `family`.  Router-only
/// knobs (buffer, service-rate) and keys a family ignores return false —
/// what `osp_cli bench` uses to warn that a packing grid swept over such
/// a key yields identical columns that differ only in label.
bool affects_instance(const std::string& key, ScenarioFamily family);

/// Compiles a kVideo scenario into the router benches' frame workload.
VideoWorkload build_video(const ScenarioSpec& spec, Rng& rng);

/// Compiles a kMultihop scenario into the pipeline workload.
MultiHopWorkload build_multihop(const ScenarioSpec& spec, Rng& rng);

/// The scenario catalog: the list scenario.cpp builds on first use.
const Registry<ScenarioSpec>& scenarios();

/// The engine-throughput ladder — the expansion of the "engine/ladder"
/// zipped sweep; bench_perf's workload table.  The last entry is the
/// "largest workload" the perf gates are measured on.
std::vector<ScenarioSpec> engine_shapes();

/// Strict parse of a decimal integer in [0, max] (digits only) for CLI
/// flags and spec overrides; throws RequireError naming `what` on
/// anything else (the seed CLI aborted with an uncaught
/// std::invalid_argument here).  Allocation-free when `text` is valid.
std::size_t parse_size(
    const std::string& what, const std::string& text,
    std::size_t max = std::numeric_limits<std::size_t>::max());

/// Weight-model lookup by CLI name (unit | uniform | zipf | exp).
WeightModel weight_model_from(const std::string& name);

}  // namespace osp::api
