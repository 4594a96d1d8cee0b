// Tests for trace-driven schedules.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "gen/trace.hpp"
#include "gen/traffic.hpp"
#include "gen/video.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

bool same_schedule(const FrameSchedule& a, const FrameSchedule& b) {
  if (a.frames.size() != b.frames.size()) return false;
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    if (a.frames[i].weight != b.frames[i].weight) return false;
    if (a.frames[i].packet_slots != b.frames[i].packet_slots) return false;
  }
  return true;
}

TEST(Trace, RoundTripTiny) {
  FrameSchedule sched;
  sched.add_frame(2.5, {0, 3, 4});
  sched.add_frame(1.0, {1});
  sched.horizon = 5;
  std::stringstream ss;
  write_trace(ss, sched);
  FrameSchedule back = read_trace(ss);
  EXPECT_TRUE(same_schedule(sched, back));
  EXPECT_EQ(back.horizon, 5u);
}

TEST(Trace, RoundTripVideoWorkload) {
  Rng rng(1);
  VideoParams params;
  params.num_streams = 5;
  params.frames_per_stream = 10;
  VideoWorkload vw = make_video_workload(params, rng);
  std::stringstream ss;
  write_trace(ss, vw.schedule);
  FrameSchedule back = read_trace(ss);
  EXPECT_TRUE(same_schedule(vw.schedule, back));
}

TEST(Trace, RoundTripBurstySchedule) {
  Rng rng(2);
  PoissonBursts bursts(2.0);
  FrameSchedule sched = bursty_schedule(bursts, 40, 3, rng);
  std::stringstream ss;
  write_trace(ss, sched);
  EXPECT_TRUE(same_schedule(sched, read_trace(ss)));
}

TEST(Trace, HorizonInferredFromSlots) {
  std::stringstream ss("osp-trace v1\nframes 1\n1.0 2 7\n");
  FrameSchedule sched = read_trace(ss);
  EXPECT_EQ(sched.horizon, 8u);
}

TEST(Trace, CommentsIgnored) {
  std::stringstream ss(R"(# recorded at router X
osp-trace v1
frames 2
4.0 0 1 2   # an I frame
1.0 1       # a P frame
)");
  FrameSchedule sched = read_trace(ss);
  EXPECT_EQ(sched.frames.size(), 2u);
  EXPECT_DOUBLE_EQ(sched.frames[0].weight, 4.0);
}

TEST(Trace, RejectsBadHeader) {
  std::stringstream ss("osp-trace v2\nframes 0\n");
  EXPECT_THROW(read_trace(ss), RequireError);
}

TEST(Trace, RejectsEmptyFrame) {
  std::stringstream ss("osp-trace v1\nframes 1\n1.0\n");
  EXPECT_THROW(read_trace(ss), RequireError);
}

TEST(Trace, RejectsUnsortedSlots) {
  std::stringstream ss("osp-trace v1\nframes 1\n1.0 5 2\n");
  EXPECT_THROW(read_trace(ss), RequireError);
}

TEST(Trace, RejectsDuplicateSlots) {
  std::stringstream ss("osp-trace v1\nframes 1\n1.0 2 2\n");
  EXPECT_THROW(read_trace(ss), RequireError);
}

TEST(Trace, BadFrameLinesFailWithTheirLineNumber) {
  // A sign, a fraction or a slot past 2^32 - 1 fails on its own line,
  // rather than wrapping or surfacing later as a horizon error; so does a
  // frame add_frame rejects.
  for (const char* bad :
       {"1.0 3 -1", "1.0 3 4294967296", "1.0 3 18446744073709551615",
        "1.0 3 18446744073709551616", "1.0 3 +1", "1.0 3 2.5", "1.0 3 x",
        "0.0 1", "-2 1", "1.0 3 2", "1.0 2 2"}) {
    std::stringstream ss(
        std::string("osp-trace v1\nframes 2\n1.0 0\n# note\n") + bad + "\n");
    try {
      read_trace(ss);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const RequireError& e) {
      EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
  std::stringstream largest("osp-trace v1\nframes 1\n1.0 4294967295\n");
  const FrameSchedule sched = read_trace(largest);
  EXPECT_EQ(sched.horizon, std::size_t{1} << 32);
  EXPECT_EQ(sched.frames[0].packet_slots[0], 4294967295u);
}

TEST(Trace, SignedFrameCountFailsOnItsLine) {
  // A signed count fails on its own line instead of reading as 2^64 - 1
  // frames and failing only at the end of the input.
  std::stringstream ss("osp-trace v1\nframes -1\n1.0 0\n");
  try {
    read_trace(ss);
    ADD_FAILURE() << "frames -1 was accepted";
  } catch (const RequireError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Trace, RejectsTruncated) {
  std::stringstream ss("osp-trace v1\nframes 3\n1.0 0\n");
  EXPECT_THROW(read_trace(ss), RequireError);
}

TEST(Trace, FileRoundTrip) {
  Rng rng(3);
  PoissonBursts bursts(1.5);
  FrameSchedule sched = bursty_schedule(bursts, 20, 2, rng);
  std::string path = "/tmp/osp_trace_test.txt";
  save_trace(path, sched);
  EXPECT_TRUE(same_schedule(sched, load_trace(path)));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace osp
