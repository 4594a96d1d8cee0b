#include "gen/video.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace osp {

VideoWorkload make_video_workload(const VideoParams& params, Rng& rng) {
  OSP_REQUIRE(params.num_streams >= 1);
  OSP_REQUIRE(params.frames_per_stream >= 1);
  OSP_REQUIRE(params.gop_length >= 1);
  OSP_REQUIRE(params.i_frame_packets >= 1 && params.p_frame_packets >= 1);
  OSP_REQUIRE(params.frame_interval >= 1);
  OSP_REQUIRE_MSG(params.num_streams <= 0xffffffffULL,
                  "stream ids are 32-bit");

  // Exact sizes: every stream sends the same GOP pattern.
  const std::size_t intra_per_stream =
      (params.frames_per_stream + params.gop_length - 1) / params.gop_length;
  const std::size_t packets_per_stream =
      intra_per_stream * params.i_frame_packets +
      (params.frames_per_stream - intra_per_stream) * params.p_frame_packets;
  const std::size_t num_frames =
      params.num_streams * params.frames_per_stream;

  VideoWorkload out;
  out.schedule.reserve(num_frames, params.num_streams * packets_per_stream);
  out.kinds.reserve(num_frames);
  out.stream_of.reserve(num_frames);
  std::vector<std::size_t> slots;
  std::size_t horizon = 0;

  for (std::size_t stream = 0; stream < params.num_streams; ++stream) {
    // Phase-shift streams so I frames from different streams overlap at
    // the link some of the time but not always.
    std::size_t phase = stream % params.frame_interval;
    for (std::size_t f = 0; f < params.frames_per_stream; ++f) {
      const bool intra = (f % params.gop_length) == 0;
      const std::size_t packets =
          intra ? params.i_frame_packets : params.p_frame_packets;
      std::size_t start = phase + f * params.frame_interval;
      if (params.max_jitter > 0)
        start += static_cast<std::size_t>(
            rng.below(params.max_jitter + 1));

      slots.clear();
      for (std::size_t p = 0; p < packets; ++p) slots.push_back(start + p);
      horizon = std::max(horizon, start + packets);

      out.schedule.add_frame(
          intra ? params.i_frame_weight : params.p_frame_weight, slots);
      out.kinds.push_back(intra ? FrameKind::kIntra : FrameKind::kPredicted);
      out.stream_of.push_back(static_cast<std::uint32_t>(stream));
    }
  }
  out.schedule.horizon = horizon;
  return out;
}

}  // namespace osp
