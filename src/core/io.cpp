#include "core/io.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "util/parse.hpp"
#include "util/require.hpp"

namespace osp {

namespace {

/// Line-oriented reader that skips blanks/comments and tracks position
/// for error messages.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next meaningful line; throws if the stream ends.
  std::string next(const char* what) {
    std::string line;
    while (std::getline(is_, line)) {
      ++lineno_;
      auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      // Trim whitespace.
      auto begin = line.find_first_not_of(" \t\r");
      if (begin == std::string::npos) continue;
      auto end = line.find_last_not_of(" \t\r");
      return line.substr(begin, end - begin + 1);
    }
    OSP_REQUIRE_MSG(false, "unexpected end of input, expected " << what);
    return {};
  }

  std::size_t lineno() const { return lineno_; }

 private:
  std::istream& is_;
  std::size_t lineno_ = 0;
};

}  // namespace

void write_instance(std::ostream& os, const Instance& inst) {
  // max_digits10 guarantees double -> text -> double round-trips exactly.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "osp-instance v1\n";
  os << "sets " << inst.num_sets() << "\n";
  for (SetId s = 0; s < inst.num_sets(); ++s) os << inst.weight(s) << "\n";
  os << "elements " << inst.num_elements() << "\n";
  for (ElementId u = 0; u < inst.num_elements(); ++u) {
    const ArrivalView a = inst.arrival(u);
    os << a.capacity;
    for (SetId s : a.parents) os << ' ' << s;
    os << "\n";
  }
}

Instance read_instance(std::istream& is) {
  LineReader reader(is);

  std::string header = reader.next("header");
  OSP_REQUIRE_MSG(header == "osp-instance v1",
                  "bad header at line " << reader.lineno() << ": '" << header
                                        << "'");

  // Counts, capacities and parent ids are digits only: `istream >>` into
  // an unsigned type reads "-1" as the type's maximum.
  auto parse_number = [&](const std::string& token, std::uint64_t max,
                          const char* what) {
    const std::optional<std::uint64_t> v = parse_unsigned(token, max);
    OSP_REQUIRE_MSG(v.has_value(), "bad " << what << " '" << token
                                          << "' at line " << reader.lineno()
                                          << " (expected an integer in [0, "
                                          << max << "])");
    return *v;
  };
  auto parse_count = [&](const char* keyword) {
    std::string line = reader.next(keyword);
    std::istringstream ss(line);
    std::string word, count;
    OSP_REQUIRE_MSG(
        (ss >> word >> count) && word == keyword && ss.eof(),
        "expected '" << keyword << " <count>' at line " << reader.lineno());
    return static_cast<std::size_t>(parse_number(
        count, std::numeric_limits<std::size_t>::max(), "count"));
  };

  InstanceBuilder builder;
  const std::size_t m = parse_count("sets");
  for (std::size_t s = 0; s < m; ++s) {
    std::string line = reader.next("set weight");
    std::istringstream ss(line);
    Weight w;
    OSP_REQUIRE_MSG((ss >> w) && ss.eof(),
                    "bad set weight at line " << reader.lineno());
    builder.add_set(w);
  }

  const std::size_t n = parse_count("elements");
  for (std::size_t u = 0; u < n; ++u) {
    std::istringstream ss(reader.next("element line"));
    std::string token;
    ss >> token;  // a returned line is never blank
    const auto cap = static_cast<Capacity>(parse_number(
        token, std::numeric_limits<Capacity>::max(), "element capacity"));
    std::vector<SetId> parents;
    while (ss >> token)
      parents.push_back(static_cast<SetId>(parse_number(
          token, std::numeric_limits<SetId>::max(), "parent set id")));
    builder.add_element(std::move(parents), cap);
  }
  return builder.build();
}

void save_instance(const std::string& path, const Instance& inst) {
  std::ofstream os(path);
  OSP_REQUIRE_MSG(os.good(), "cannot open " << path << " for writing");
  write_instance(os, inst);
  OSP_REQUIRE_MSG(os.good(), "write to " << path << " failed");
}

Instance load_instance(const std::string& path) {
  std::ifstream is(path);
  OSP_REQUIRE_MSG(is.good(), "cannot open " << path);
  return read_instance(is);
}

}  // namespace osp
