// Known-bad fixture: unsanctioned float formatting in the JSON layer.
// "%f" truncates, "%.10g" loses bits, and stream manipulators depend on
// locale/state — any of them breaks the byte-identity guarantee the
// JsonSink artifacts and the sharded merge are proven against.
//
// osp-lint-expect: wire-float-format
// osp-lint-expect: wire-float-format
// osp-lint-expect: wire-float-format
#include <cstdio>
#include <iomanip>
#include <sstream>

namespace osp::api {

void emit_cell(char* buf, std::size_t cap, double v) {
  std::snprintf(buf, cap, "%f", v);     // wire-float-format: %f
  std::snprintf(buf, cap, "%.10g", v);  // wire-float-format: %.10g
}

std::string emit_stream(double v) {
  std::ostringstream os;
  os << std::setprecision(12) << v;  // wire-float-format: manipulator
  return os.str();
}

// The sanctioned forms must NOT fire.
void emit_sanctioned(char* buf, std::size_t cap, double v) {
  std::snprintf(buf, cap, "%.17g", v);
  std::snprintf(buf, cap, "%04x", static_cast<unsigned>(cap));
}

}  // namespace osp::api
