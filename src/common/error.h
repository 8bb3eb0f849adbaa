// Error handling primitives shared by every fedl module.
//
// We use exceptions for unrecoverable precondition violations (they indicate
// programmer error or corrupted experiment configuration, never expected
// runtime states), and FEDL_CHECK is kept in release builds: the cost is
// negligible relative to training work and the diagnostics are invaluable
// when a 2-hour sweep dies.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace fedl {

// Thrown on violated FEDL_CHECK conditions.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

// Thrown when a user-supplied configuration is inconsistent (e.g. budget < 0,
// n > M). Distinct from CheckError so callers can surface a friendly message.
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

// Invoked (when set) just before a failed FEDL_CHECK throws, so long-lived
// artifacts (trace, metrics, manifest) can be flushed even if the exception
// is never caught — an uncaught throw terminates without unwinding, which
// used to lose everything a run had recorded. The hook must be noexcept-ish
// in spirit (it runs on the failure path); the observability session
// (obs/session.h) registers one that flushes partial artifacts with a
// "clean": false manifest marker. Passing nullptr unregisters.
using CheckFailureHook = void (*)();
void set_check_failure_hook(CheckFailureHook hook);
CheckFailureHook check_failure_hook();

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "FEDL_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  if (CheckFailureHook hook = check_failure_hook()) hook();
  throw CheckError(os.str());
}

// Lightweight stream collector so FEDL_CHECK(x) << "context" works.
class CheckMessage {
 public:
  CheckMessage(const char* expr, const char* file, int line)
      : expr_(expr), file_(file), line_(line) {}
  template <typename T>
  CheckMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }
  [[noreturn]] ~CheckMessage() noexcept(false) {
    check_failed(expr_, file_, line_, stream_.str());
  }

 private:
  const char* expr_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace fedl

// Precondition check, active in all build types. Usage:
//   FEDL_CHECK(n > 0) << "need at least one client, got " << n;
#define FEDL_CHECK(cond)                                                  \
  if (cond) {                                                             \
  } else                                                                  \
    ::fedl::detail::CheckMessage(#cond, __FILE__, __LINE__)

// Convenience comparisons with both operands printed.
#define FEDL_CHECK_OP(a, op, b)                                           \
  FEDL_CHECK((a)op(b)) << "lhs=" << (a) << " rhs=" << (b) << " "
#define FEDL_CHECK_EQ(a, b) FEDL_CHECK_OP(a, ==, b)
#define FEDL_CHECK_NE(a, b) FEDL_CHECK_OP(a, !=, b)
#define FEDL_CHECK_LT(a, b) FEDL_CHECK_OP(a, <, b)
#define FEDL_CHECK_LE(a, b) FEDL_CHECK_OP(a, <=, b)
#define FEDL_CHECK_GT(a, b) FEDL_CHECK_OP(a, >, b)
#define FEDL_CHECK_GE(a, b) FEDL_CHECK_OP(a, >=, b)
