#include "host.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

// A dependent multiply-add chain: pure ALU work that no thread shares,
// so n concurrent copies take as long as one on n real cores.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < iterations; ++i)
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

volatile std::uint64_t g_sink = 0;

/// Wall time of `threads` concurrent spins: the caller's thread runs one,
/// threads - 1 helpers run the others, and all are joined.
double spin_seconds(std::size_t threads, std::uint64_t iterations) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  std::vector<std::uint64_t> out(threads, 0);
  for (std::size_t t = 1; t < threads; ++t)
    pool.emplace_back([&out, t, iterations] { out[t] = spin(iterations); });
  out[0] = spin(iterations);
  for (std::thread& th : pool) th.join();
  for (std::uint64_t v : out) g_sink = g_sink + v;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double status_field_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) != 0 || line.size() <= len ||
        line[len] != ':')
      continue;
    return std::stod(line.substr(len + 1)) * 1024.0 / 1e6;  // kB -> MB
  }
  return 0.0;
}

}  // namespace

HostRecord measure_host() {
  HostRecord h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  constexpr std::uint64_t kIterations = 40'000'000;
  // Best of three for each side, so one preemption cannot fake a core.
  h.spin_1_s = h.spin_n_s = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    h.spin_1_s = std::min(h.spin_1_s, spin_seconds(1, kIterations));
    h.spin_n_s = std::min(h.spin_n_s, spin_seconds(h.nproc, kIterations));
  }
  h.effective_parallelism =
      static_cast<double>(h.nproc) * h.spin_1_s / h.spin_n_s;
  return h;
}

double rss_mb() { return status_field_mb("VmRSS"); }
double peak_rss_mb() { return status_field_mb("VmHWM"); }

bool reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

}  // namespace perfbench
