// perfbench — the repository benchmark (see ../NOTES.md).
//
//   perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// Prints one table per workload, then, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics.  Exits 1 when any operation failed (threw, disagreed with its
// oracle, or did not repeat exactly), 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name|all> "
               "--seed <n> --seconds <s> --trace <0|1>\nworkloads:",
               message);
  for (const std::string& w : perfbench::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, " all\n");
  return 2;
}

bool parse_u64(const char* text, unsigned long long& out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != nullptr && *end == '\0';
}

void print_table(const Report& r, bool traced) {
  std::printf("== %s (%s) ==\n", r.workload.c_str(),
              traced ? "traced: per-layer metrics" : "untraced: end-to-end");
  for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
  std::printf("%-31s %16s  %-6s %s\n", "metric", "value", "unit",
              traced ? "should move" : "samples");
  for (const Metric& m : r.metrics)
    std::printf("%-31s %16.6g  %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  for (const std::string& f : r.failures)
    std::printf("FAILED: %s\n", f.c_str());
  std::printf("\n");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  unsigned long long seed = 0, seconds = 0, trace = 2;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return usage("missing flag value");
    if (std::strcmp(flag, "--workload") == 0) {
      o.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      have_seed = parse_u64(value, seed);
      if (!have_seed) return usage("--seed needs a non-negative integer");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      have_seconds = parse_u64(value, seconds) && seconds >= 1 &&
                     seconds <= 600;
      if (!have_seconds) return usage("--seconds needs an integer in [1, 600]");
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!parse_u64(value, trace) || trace > 1)
        return usage("--trace needs 0 or 1");
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      o.out_dir = value;
    } else {
      return usage("unknown flag");
    }
    ++i;
  }
  if (o.workload.empty() || !have_seed || !have_seconds || trace > 1)
    return usage("--workload, --seed, --seconds and --trace are required");
  o.seed = seed;
  o.seconds = static_cast<double>(seconds);
  o.trace = trace == 1;

  // Every workload is single-threaded (see the host record); this also
  // pins any default-constructed runner inside the library.
  setenv("OSP_THREADS", "1", 1);

  std::vector<std::string> names;
  if (o.workload == "all") {
    names = perfbench::workload_names();
  } else {
    for (const std::string& w : perfbench::workload_names())
      if (w == o.workload) names.push_back(w);
    if (names.empty()) return usage("unknown workload");
  }

  std::vector<Report> reports;
  try {
    for (const std::string& name : names) {
      Options one = o;
      one.workload = name;
      reports.push_back(perfbench::run_workload(one));
      print_table(reports.back(), o.trace);
      std::fflush(stdout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  unsigned long long attempted = 0, failed = 0;
  std::string metrics;
  for (const Report& r : reports) {
    attempted += r.attempted;
    failed += r.failed;
    for (const Metric& m : r.metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "perfbench: %s is not finite\n", m.name.c_str());
        return 2;
      }
      const std::string key =
          names.size() > 1 ? r.workload + "/" + m.name : m.name;
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", m.value);
      if (!metrics.empty()) metrics += ", ";
      metrics += json_string(key) + ": {\"value\": " + value +
                 ", \"unit\": " + json_string(m.unit) + "}";
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failed == 0 ? "true" : "false", attempted, failed, metrics.c_str());
  return failed == 0 ? 0 : 1;
}
