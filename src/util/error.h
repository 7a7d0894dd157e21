// Library error type and precondition checks.
#pragma once

#include <stdexcept>
#include <string>

namespace nanoleak {

/// Base class for all errors thrown by nanoleak.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when an input file or netlist description is malformed.
class ParseError : public Error {
 public:
  ParseError(const std::string& what, int line);
  /// 1-based line number in the offending input, or 0 if unknown.
  int line() const { return line_; }

 private:
  int line_;
};

/// Thrown when a numerical routine fails to converge.
class ConvergenceError : public Error {
 public:
  explicit ConvergenceError(const std::string& what) : Error(what) {}
};

/// Throws nanoleak::Error with `message` if `condition` is false.
/// Used for precondition checks on public API boundaries (I.5/I.6 of the
/// C++ Core Guidelines: state and check preconditions).
void require(bool condition, const std::string& message);

/// Throws nanoleak::Error(message); the out-of-line cold half of
/// require(bool, const char*).
[[noreturn]] void throwError(const char* message);

/// require() for fixed messages: a passing check builds no string, so it
/// is cheap enough for per-gate and per-pattern paths. Checks whose
/// message needs formatting should test first and build it only on
/// failure.
inline void require(bool condition, const char* message) {
  if (!condition) [[unlikely]] {
    throwError(message);
  }
}

}  // namespace nanoleak
