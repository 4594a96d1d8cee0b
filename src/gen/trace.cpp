#include "gen/trace.hpp"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "util/parse.hpp"
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
  std::string word, count_text;
  OSP_REQUIRE_MSG((cs >> word >> count_text) && word == "frames" && cs.eof(),
                  "expected 'frames <count>' at line " << lineno);
  const std::optional<std::uint64_t> count =
      parse_unsigned(count_text, std::numeric_limits<std::size_t>::max());
  OSP_REQUIRE_MSG(count.has_value(), "bad frame count '" << count_text
                                                         << "' at line "
                                                         << lineno);

  FrameSchedule sched;
  std::vector<std::size_t> slots;
  std::string token;
  for (std::uint64_t i = 0; i < *count; ++i) {
    std::istringstream fs(next("frame line"));
    Weight weight = 0;
    OSP_REQUIRE_MSG(static_cast<bool>(fs >> weight),
                    "bad frame weight at line " << lineno);
    // Digits only: a sign, a fraction or a slot past 2^32 - 1 names no
    // slot a consumer can serve.
    slots.clear();
    while (fs >> token) {
      const std::optional<std::uint64_t> slot =
          parse_unsigned(token, 0xffffffffULL);
      OSP_REQUIRE_MSG(slot.has_value(),
                      "bad slot '" << token << "' at line " << lineno
                                   << ": slots are integers in [0, 2^32)");
      slots.push_back(*slot);
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
