#include "engine/batch_runner.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "util/require.hpp"

namespace osp::engine {

std::size_t resolve_num_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const char* env = std::getenv("OSP_THREADS");
  if (env != nullptr && *env != '\0') {
    // from_chars takes digits only, where strtoul would read "-1" as
    // 2^64 - 1.
    const char* end = env + std::strlen(env);
    std::size_t v = 0;
    const auto [last, error] = std::from_chars(env, end, v);
    OSP_REQUIRE_MSG(error == std::errc() && last == end && v >= 1 &&
                        v <= kMaxThreads,
                    "OSP_THREADS must be an integer in [1, "
                        << kMaxThreads << "], got '" << env << "'");
    return v;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

const BatchRunner& shared_runner() {
  static const BatchRunner runner{BatchOptions{}};
  return runner;
}

}  // namespace osp::engine
