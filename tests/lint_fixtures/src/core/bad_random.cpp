// Known-bad fixture: raw randomness, engines seeded outside util/rng and
// wall-clock reads in a decision path.  Every call below would make a
// trial's outcome depend on process state, or on a stream util/rng does
// not define, instead of the grid-coordinate seed.
//
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <random>

namespace osp {

int pick_candidate(int n) {
  std::srand(42);                        // raw-random: srand()
  int r = std::rand() % n;               // raw-random: rand()
  std::random_device entropy;            // raw-random: random_device
  r ^= static_cast<int>(entropy());
  r ^= static_cast<int>(std::time(nullptr));  // raw-random: time()
  r ^= static_cast<int>(clock());        // raw-random: clock()
  return r % n;
}

std::uint64_t seed_own_engines(std::uint64_t seed) {
  std::seed_seq words{seed};             // raw-random: seed_seq
  std::mt19937_64 twister(words);        // raw-random: mt19937_64
  std::minstd_rand lcg(1);               // raw-random: minstd_rand
  std::ranlux48 lagged(2);               // raw-random: ranlux48
  std::knuth_b shuffled(3);              // raw-random: knuth_b
  std::default_random_engine fallback(4);  // raw-random: default engine
  return twister() ^ lcg() ^ lagged() ^ shuffled() ^ fallback();
}

// Names that merely contain an engine's name are not engines.
int my_mt19937_count = 0;

// A comment mentioning rand() and a string "rand()" must NOT fire; the
// stripped views keep rules blind to documentation.
const char* describe() { return "uses rand() nowhere, honest"; }

}  // namespace osp
