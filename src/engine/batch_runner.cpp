#include "engine/batch_runner.hpp"

#include <cstdlib>

#include "util/parse.hpp"
#include "util/require.hpp"

namespace osp::engine {

std::size_t resolve_num_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const char* env = std::getenv("OSP_THREADS");
  if (env != nullptr && *env != '\0') {
    const std::optional<std::uint64_t> v = parse_unsigned(env, kMaxThreads);
    OSP_REQUIRE_MSG(v.has_value() && *v >= 1,
                    "OSP_THREADS must be an integer in [1, "
                        << kMaxThreads << "], got '" << env << "'");
    return static_cast<std::size_t>(*v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

const BatchRunner& shared_runner() {
  static const BatchRunner runner{BatchOptions{}};
  return runner;
}

}  // namespace osp::engine
