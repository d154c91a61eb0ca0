#pragma once

#include <stdexcept>
#include <string>

namespace lbnn {

/// Base class for all errors raised by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed input (bad Verilog text, inconsistent netlist construction, ...).
class ParseError : public Error {
 public:
  ParseError(const std::string& what, int line, int column);

  int line() const { return line_; }
  int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// The compiler could not map the given network onto the given LPU
/// configuration (e.g. a logic level wider than any schedule can express).
class CompileError : public Error {
 public:
  explicit CompileError(const std::string& what) : Error(what) {}
};

/// A simulation-time protocol violation (reading a buffer slot before it was
/// written, malformed program, ...). Indicates a compiler bug, so tests treat
/// any SimError as failure.
class SimError : public Error {
 public:
  explicit SimError(const std::string& what) : Error(what) {}
};

/// A serving request missed its deadline: either rejected on the blocking
/// submit path because the queue's estimated drain time already exceeded it
/// (the non-blocking path reports SubmitStatus::kDeadlineUnmeetable instead),
/// or dropped by a worker that found it expired at dequeue.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

}  // namespace lbnn
