// Trace-driven workloads: load and store packet traces as frame
// schedules, so experiments can run on recorded traffic instead of the
// synthetic models (the substitution hook for anyone with real router
// traces).
//
// Trace format (line oriented, '#' comments):
//
//   osp-trace v1
//   frames <count>
//   <weight> <slot> <slot> ...     # one line per frame, slots ascending
#pragma once

#include <iosfwd>
#include <string>

#include "gen/schedule.hpp"

namespace osp {

/// Writes a schedule as a v1 trace.
void write_trace(std::ostream& os, const FrameSchedule& schedule);

/// Parses a v1 trace; throws RequireError (with a line number) on
/// malformed input: a slot that is not a decimal integer below 2^32, or a
/// frame FrameSchedule::add_frame rejects.  The horizon is set to one past
/// the last slot.
FrameSchedule read_trace(std::istream& is);

/// File convenience wrappers.
void save_trace(const std::string& path, const FrameSchedule& schedule);
FrameSchedule load_trace(const std::string& path);

}  // namespace osp
