// Checked runtime assertions for the osp library.
//
// The library validates untrusted inputs (instances arriving online,
// user-supplied parameters) with OSP_REQUIRE, which throws and therefore
// stays active in release builds.  Internal invariants use OSP_ASSERT,
// which compiles away under NDEBUG.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace osp {

/// Thrown when a precondition on user-supplied data is violated.
class RequireError : public std::logic_error {
 public:
  explicit RequireError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

/// The file name without its directories: an error text must not depend
/// on where the tree was checked out.
inline const char* source_name(const char* path) {
  const char* name = path;
  for (const char* c = path; *c != '\0'; ++c)
    if (*c == '/' || *c == '\\') name = c + 1;
  return name;
}

/// A bare requirement names the failed expression and where it sits.
[[noreturn]] inline void require_fail(const char* expr, const char* file,
                                      int line) {
  std::ostringstream os;
  os << "requirement failed: " << expr << " at " << source_name(file) << ":"
     << line;
  throw RequireError(os.str());
}

}  // namespace detail
}  // namespace osp

/// Precondition check on external input; throws osp::RequireError on failure.
#define OSP_REQUIRE(expr)                                              \
  do {                                                                 \
    if (!(expr))                                                       \
      ::osp::detail::require_fail(#expr, __FILE__, __LINE__);          \
  } while (0)

/// Precondition check with an explanatory message (streamed).  The error
/// text is the message alone: it is written for whoever supplied the bad
/// input, so it carries no expression or source location.  The local
/// stream carries a macro-private name: a plain `os_` shadows same-named
/// members in classes whose methods use the macro (ShardSink::os_ did).
#define OSP_REQUIRE_MSG(expr, msg)                                     \
  do {                                                                 \
    if (!(expr)) {                                                     \
      std::ostringstream osp_require_os_;                              \
      osp_require_os_ << msg;                                          \
      throw ::osp::RequireError(osp_require_os_.str());                \
    }                                                                  \
  } while (0)

/// Internal invariant; disabled when NDEBUG is defined.
#ifdef NDEBUG
#define OSP_ASSERT(expr) ((void)0)
#else
#define OSP_ASSERT(expr) OSP_REQUIRE(expr)
#endif
