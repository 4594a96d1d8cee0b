// Known-bad fixture: raw randomness, engines seeded outside util/rng,
// standard distributions and algorithms, and wall-clock reads in a
// decision path.  Every call below would make a trial's outcome depend on
// process state, or on a stream util/rng does not define, instead of the
// grid-coordinate seed.
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
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
// osp-lint-expect: raw-random
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <random>
#include <vector>

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

// The standard leaves every distribution and algorithm stream to the
// library, so even a util/rng engine fed through them draws differently
// under libstdc++ and libc++.
template <class Urbg>
double draw_through_std(std::vector<int>& v, Urbg& gen) {
  std::shuffle(v.begin(), v.end(), gen);  // raw-random: std::shuffle
  std::sample(v.begin(), v.end(), v.begin(), 1, gen);  // raw-random: sample
  std::poisson_distribution<int> arrivals(2.5);  // raw-random: distribution
  double u = std::generate_canonical<double, 53>(gen);  // raw-random
  return u + std::uniform_real_distribution<double>(0, 1)(gen) +  // raw
         arrivals(gen);
}

// Drawing through util/rng, and names that merely contain a banned
// algorithm's or distribution's name, are fine.
template <class Rng>
void draw_through_util(std::vector<int>& v, Rng& rng) {
  rng.shuffle(v.begin(), v.end());
  const double poisson_distribution_mean = 2.5;
  v.resize(sample_distinct(v, rng, poisson_distribution_mean));
}

// Names that merely contain an engine's name are not engines.
int my_mt19937_count = 0;

// A comment mentioning rand() and a string "rand()" must NOT fire; the
// stripped views keep rules blind to documentation.
const char* describe() { return "uses rand() nowhere, honest"; }

}  // namespace osp
