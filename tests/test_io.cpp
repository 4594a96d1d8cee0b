// Tests for instance serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/io.hpp"
#include "design/lower_bounds.hpp"
#include "gen/random_instances.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

bool same_instance(const Instance& a, const Instance& b) {
  if (a.num_sets() != b.num_sets() || a.num_elements() != b.num_elements())
    return false;
  for (SetId s = 0; s < a.num_sets(); ++s)
    if (a.weight(s) != b.weight(s)) return false;
  for (ElementId u = 0; u < a.num_elements(); ++u) {
    if (a.arrival(u).capacity != b.arrival(u).capacity) return false;
    if (a.arrival(u).parents != b.arrival(u).parents) return false;
  }
  return true;
}

TEST(InstanceIo, RoundTripTiny) {
  InstanceBuilder b;
  b.add_set(1.5);
  b.add_set(2.0);
  b.add_element({0, 1}, 2);
  b.add_element({0});
  Instance inst = b.build();

  std::stringstream ss;
  write_instance(ss, inst);
  Instance back = read_instance(ss);
  EXPECT_TRUE(same_instance(inst, back));
}

TEST(InstanceIo, RoundTripRandomSweep) {
  Rng master(1);
  for (int trial = 0; trial < 10; ++trial) {
    Rng gen = master.split(trial);
    Instance inst = random_capacity_instance(
        15, 20, 3, 3, WeightModel::uniform(1, 7), gen);
    std::stringstream ss;
    write_instance(ss, inst);
    EXPECT_TRUE(same_instance(inst, read_instance(ss)));
  }
}

TEST(InstanceIo, RoundTripAdversarialTranscript) {
  // The practical use case: persist an adversarial transcript for replay.
  Rng rng(2);
  WeakLbInstance wl = build_weak_lb_instance(5, rng);
  std::stringstream ss;
  write_instance(ss, wl.instance);
  EXPECT_TRUE(same_instance(wl.instance, read_instance(ss)));
}

TEST(InstanceIo, CommentsAndBlankLinesIgnored) {
  std::stringstream ss(R"(# generated by hand
osp-instance v1

sets 2
1.0    # the first set
2.5
elements 1
1 0 1  # one contended element
)");
  Instance inst = read_instance(ss);
  EXPECT_EQ(inst.num_sets(), 2u);
  EXPECT_DOUBLE_EQ(inst.weight(1), 2.5);
  EXPECT_EQ(inst.arrival(0).parents, (std::vector<SetId>{0, 1}));
}

TEST(InstanceIo, EmptyInstanceRoundTrips) {
  InstanceBuilder b;
  b.add_set(1.0);
  Instance inst = b.build();  // one set, no elements
  std::stringstream ss;
  write_instance(ss, inst);
  Instance back = read_instance(ss);
  EXPECT_TRUE(same_instance(inst, back));
}

TEST(InstanceIo, RejectsBadHeader) {
  std::stringstream ss("osp-instance v9\nsets 0\nelements 0\n");
  EXPECT_THROW(read_instance(ss), RequireError);
}

TEST(InstanceIo, RejectsTruncatedInput) {
  std::stringstream ss("osp-instance v1\nsets 2\n1.0\n");
  EXPECT_THROW(read_instance(ss), RequireError);
}

TEST(InstanceIo, RejectsGarbageWeight) {
  std::stringstream ss("osp-instance v1\nsets 1\nbanana\nelements 0\n");
  EXPECT_THROW(read_instance(ss), RequireError);
}

TEST(InstanceIo, RejectsUnknownParent) {
  std::stringstream ss(
      "osp-instance v1\nsets 1\n1.0\nelements 1\n1 0 7\n");
  EXPECT_THROW(read_instance(ss), RequireError);
}

TEST(InstanceIo, RejectsTrailingGarbageOnElement) {
  std::stringstream ss(
      "osp-instance v1\nsets 1\n1.0\nelements 1\n1 0 oops\n");
  EXPECT_THROW(read_instance(ss), RequireError);
}

TEST(InstanceIo, NumbersAreDigitsOnlyAndFailOnTheirLine) {
  // `istream >>` into an unsigned type negates a '-': "-1" would load as
  // capacity 4294967295 and a parent "-4294967295" as set 1.
  const std::string head = "osp-instance v1\nsets 2\n1.0\n1.0\n";
  const struct {
    std::string text;
    const char* line;
  } cases[] = {
      {head + "elements 1\n-1 0 1\n", "line 6"},
      {head + "elements 1\n1 -4294967295\n", "line 6"},
      {head + "elements 1\n4294967296 0\n", "line 6"},
      {head + "elements 1\n1 4294967296\n", "line 6"},
      {head + "elements 1\n+1 0\n", "line 6"},
      {head + "elements 1\n1 0x1\n", "line 6"},
      {head + "elements -1\n", "line 5"},
      {"osp-instance v1\nsets -1\n", "line 2"},
      {"osp-instance v1\nsets 18446744073709551616\n", "line 2"},
  };
  for (const auto& c : cases) {
    std::stringstream ss(c.text);
    try {
      read_instance(ss);
      ADD_FAILURE() << c.text << " was accepted";
    } catch (const RequireError& e) {
      EXPECT_NE(std::string(e.what()).find(c.line), std::string::npos)
          << c.text << ": " << e.what();
    }
  }
  std::stringstream largest(head + "elements 1\n4294967295 1\n");
  const Instance inst = read_instance(largest);
  EXPECT_EQ(inst.arrival(0).capacity, 4294967295u);
  EXPECT_EQ(inst.arrival(0).parents, std::vector<SetId>{1});
}

TEST(InstanceIo, FileRoundTrip) {
  Rng gen(3);
  Instance inst = random_instance(10, 12, 2, WeightModel::unit(), gen);
  std::string path = "/tmp/osp_io_test_instance.txt";
  save_instance(path, inst);
  Instance back = load_instance(path);
  EXPECT_TRUE(same_instance(inst, back));
  std::remove(path.c_str());
}

TEST(InstanceIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_instance("/nonexistent/dir/foo.txt"), RequireError);
}

}  // namespace
}  // namespace osp
