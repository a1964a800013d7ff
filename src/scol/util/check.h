// Checked assertions and structured errors used across the library.
//
// SCOL_CHECK is always on (library invariants and user-facing precondition
// violations throw, so tests and callers can observe them); SCOL_DCHECK
// compiles away in NDEBUG builds and guards internal hot-path invariants.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace scol {

/// Thrown when a documented precondition of a public API is violated.
class PreconditionError : public std::invalid_argument {
 public:
  explicit PreconditionError(const std::string& what)
      : std::invalid_argument(what) {}
};

/// Thrown when an internal invariant fails (a bug in this library).
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
// The message names the file by its basename, so a failure text (and a
// report's failure_reason) does not depend on where the tree is checked
// out.
[[noreturn]] inline void check_failed(const char* kind, const char* expr,
                                      const char* file, int line,
                                      const std::string& msg) {
  const std::string_view path(file);
  // With no separator, find_last_of's npos + 1 wraps to 0: the whole name.
  const std::string_view base = path.substr(path.find_last_of("/\\") + 1);
  std::ostringstream os;
  os << kind << " failed: " << expr << " at " << base << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  if (kind[0] == 'S') throw InternalError(os.str());
  throw PreconditionError(os.str());
}
}  // namespace detail

#define SCOL_CHECK(cond, ...)                                             \
  do {                                                                    \
    if (!(cond))                                                          \
      ::scol::detail::check_failed("SCOL_CHECK", #cond, __FILE__,         \
                                   __LINE__, std::string("") __VA_ARGS__); \
  } while (0)

#define SCOL_REQUIRE(cond, ...)                                           \
  do {                                                                    \
    if (!(cond))                                                          \
      ::scol::detail::check_failed("REQUIRE", #cond, __FILE__, __LINE__,  \
                                   std::string("") __VA_ARGS__);          \
  } while (0)

#ifdef NDEBUG
#define SCOL_DCHECK(cond, ...) \
  do {                         \
  } while (0)
#else
#define SCOL_DCHECK(cond, ...) SCOL_CHECK(cond, __VA_ARGS__)
#endif

}  // namespace scol
