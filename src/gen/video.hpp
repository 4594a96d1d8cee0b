// Video-transmission workload: the paper's motivating scenario.
//
// Several senders stream video through one bottleneck link.  Each stream
// emits a GOP-structured frame sequence (a large I frame every gop_length
// frames, smaller P frames in between); frames are packetized and the
// packets of concurrently transmitting frames collide at the link.
// Frame weights reflect decode value (losing an I frame costs the GOP).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gen/schedule.hpp"
#include "util/rng.hpp"

namespace osp {

/// Parameters of the synthetic video workload.
struct VideoParams {
  std::size_t num_streams = 8;        // concurrent senders
  std::size_t frames_per_stream = 30; // frames per sender
  std::size_t gop_length = 12;        // I frame every gop_length frames
  std::size_t i_frame_packets = 6;    // packets per I frame
  std::size_t p_frame_packets = 2;    // packets per P frame
  Weight i_frame_weight = 4.0;        // value of a delivered I frame
  Weight p_frame_weight = 1.0;        // value of a delivered P frame
  std::size_t frame_interval = 3;     // slots between frame starts per stream
  std::size_t max_jitter = 2;         // random extra start delay per frame
};

/// Kind tag for inspecting the generated frames.
enum class FrameKind : std::uint8_t { kIntra, kPredicted };

/// Schedule plus per-frame metadata (index-aligned with schedule.frames).
struct VideoWorkload {
  FrameSchedule schedule;
  std::vector<FrameKind> kinds;
  std::vector<std::uint32_t> stream_of;  // originating stream of each frame
};

/// Generates the workload.  Streams are phase-shifted so their I frames
/// partially collide — the regime where drop decisions matter.
VideoWorkload make_video_workload(const VideoParams& params, Rng& rng);

}  // namespace osp
