#include "gen/trace.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "util/require.hpp"

namespace osp {

void write_trace(std::ostream& os, const FrameSchedule& schedule) {
  schedule.validate();
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "osp-trace v1\n";
  os << "frames " << schedule.frames.size() << "\n";
  for (const Frame& f : schedule.frames) {
    os << f.weight;
    for (std::uint32_t slot : f.packet_slots) os << ' ' << slot;
    os << "\n";
  }
}

FrameSchedule read_trace(std::istream& is) {
  std::string line;
  std::size_t lineno = 0;
  auto next = [&](const char* what) {
    while (std::getline(is, line)) {
      ++lineno;
      auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      auto begin = line.find_first_not_of(" \t\r");
      if (begin == std::string::npos) continue;
      auto end = line.find_last_not_of(" \t\r");
      return line.substr(begin, end - begin + 1);
    }
    OSP_REQUIRE_MSG(false, "unexpected end of trace, expected " << what);
    return std::string{};
  };

  std::string header = next("header");
  OSP_REQUIRE_MSG(header == "osp-trace v1",
                  "bad trace header at line " << lineno);

  std::string counts = next("frame count");
  std::istringstream cs(counts);
  std::string word;
  std::size_t count = 0;
  OSP_REQUIRE_MSG((cs >> word >> count) && word == "frames" && cs.eof(),
                  "expected 'frames <count>' at line " << lineno);

  FrameSchedule sched;
  std::vector<std::size_t> slots;
  std::string token;
  for (std::size_t i = 0; i < count; ++i) {
    std::istringstream fs(next("frame line"));
    Weight weight = 0;
    OSP_REQUIRE_MSG(static_cast<bool>(fs >> weight),
                    "bad frame weight at line " << lineno);
    // Digits only: a sign, a fraction or a slot past 2^32 - 1 names no
    // slot a consumer can serve.
    slots.clear();
    while (fs >> token) {
      std::uint64_t slot = 0;
      const char* end = token.data() + token.size();
      const auto parsed = std::from_chars(token.data(), end, slot);
      OSP_REQUIRE_MSG(parsed.ec == std::errc() && parsed.ptr == end &&
                          slot <= 0xffffffffULL,
                      "bad slot '" << token << "' at line " << lineno
                                   << ": slots are integers in [0, 2^32)");
      slots.push_back(slot);
    }
    try {
      sched.add_frame(weight, slots);
    } catch (const RequireError& e) {
      throw RequireError("trace line " + std::to_string(lineno) + ": " +
                         e.what());
    }
  }
  sched.horizon = sched.frames.slot_end();
  return sched;
}

void save_trace(const std::string& path, const FrameSchedule& schedule) {
  std::ofstream os(path);
  OSP_REQUIRE_MSG(os.good(), "cannot open " << path << " for writing");
  write_trace(os, schedule);
  OSP_REQUIRE_MSG(os.good(), "write to " << path << " failed");
}

FrameSchedule load_trace(const std::string& path) {
  std::ifstream is(path);
  OSP_REQUIRE_MSG(is.good(), "cannot open " << path);
  return read_trace(is);
}

}  // namespace osp
