// errors.hpp — exception hierarchy for the sdfred library.
//
// All errors raised by the library derive from sdf::Error so that callers can
// catch library failures with a single handler while still distinguishing the
// broad failure classes below.
#pragma once

#include <stdexcept>
#include <string>

namespace sdf {

/// Root of the sdfred exception hierarchy.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Arithmetic failure: integer overflow, division by zero, or an operation
/// on max-plus minus-infinity that has no defined result.
class ArithmeticError : public Error {
public:
    explicit ArithmeticError(const std::string& what) : Error(what) {}
};

/// A graph failed structural validation (dangling actor reference, zero
/// rate, negative delay, duplicate actor name, ...).
class InvalidGraphError : public Error {
public:
    explicit InvalidGraphError(const std::string& what) : Error(what) {}
};

/// The balance equations of a graph have no non-trivial solution; the graph
/// has no repetition vector (Lee & Messerschmitt consistency).
class InconsistentGraphError : public Error {
public:
    explicit InconsistentGraphError(const std::string& what) : Error(what) {}
};

/// A (partial) execution of the graph reached a state in which no actor can
/// fire although the iteration is not complete.
class DeadlockError : public Error {
public:
    explicit DeadlockError(const std::string& what) : Error(what) {}
};

/// An abstraction specification violates Definition 3 of the paper.
class InvalidAbstractionError : public Error {
public:
    explicit InvalidAbstractionError(const std::string& what) : Error(what) {}
};

/// Failure while parsing one of the supported graph file formats.
class ParseError : public Error {
public:
    explicit ParseError(const std::string& what) : Error(what) {}
};

/// Throws InvalidGraphError with the given message when `condition` is false.
/// Takes a literal so a passing check builds no std::string; a caller that
/// composes its message from parts throws InvalidGraphError itself.
void require(bool condition, const char* message);

}  // namespace sdf
