#ifndef LAKE_UTIL_STATUS_H_
#define LAKE_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace lake {

/// Error categories used across the library. The library does not throw
/// exceptions; fallible operations return Status or Result<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
  kIoError,
  kDeadlineExceeded,
  kCancelled,
  kOverloaded,
  /// A dependency is temporarily refusing work (e.g. an open circuit
  /// breaker); retry after backoff, unlike kOverloaded which signals the
  /// caller itself is sending too much.
  kUnavailable,
};

/// Returns a stable human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// Lightweight success/error carrier, modeled on absl::Status.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

/// Value-or-error carrier, modeled on absl::StatusOr. Accessing the value of
/// an error Result is a programming error (checked by assert in debug).
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (mirrors StatusOr ergonomics).
  Result(T value) : status_(), value_(std::move(value)) {}
  /// Implicit construction from an error status; must not be OK.
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value or `fallback` when this holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates an error status out of the enclosing function.
#define LAKE_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::lake::Status _lake_st = (expr);               \
    if (!_lake_st.ok()) return _lake_st;            \
  } while (false)

/// Evaluates a Result expression, assigning the value on success and
/// propagating the error status otherwise.
#define LAKE_ASSIGN_OR_RETURN(lhs, expr)            \
  LAKE_ASSIGN_OR_RETURN_IMPL_(                      \
      LAKE_STATUS_CONCAT_(_lake_res, __LINE__), lhs, expr)

#define LAKE_STATUS_CONCAT_INNER_(a, b) a##b
#define LAKE_STATUS_CONCAT_(a, b) LAKE_STATUS_CONCAT_INNER_(a, b)
#define LAKE_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

}  // namespace lake

#endif  // LAKE_UTIL_STATUS_H_
