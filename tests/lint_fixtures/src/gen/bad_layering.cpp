// Known-bad fixture: two includes that do not point down the layer map
// from src/gen (rank 3) — one up into engine (rank 4), one across to its
// peer stats (also rank 3) — next to the two kinds the map allows: a
// lower rank and the file's own directory.
//
// osp-lint-expect: layering
// osp-lint-expect: layering
#include "core/instance.hpp"
#include "engine/trial.hpp"     // layering: up
#include "gen/schedule.hpp"
#include "stats/summary.hpp"    // layering: across to a peer

namespace osp {

int fixture_layering() { return 0; }

}  // namespace osp
